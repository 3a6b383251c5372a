package persist

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mutations.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Epoch: 1, Mutations: []Mutation{{Op: "insert", U: 0, V: 5, Weight: 2}}},
		{Epoch: 2, Mutations: []Mutation{{Op: "delete", U: 0, V: 5}, {Op: "insert", U: 1, V: 2, Weight: 7}}},
		{Epoch: 3, Mutations: []Mutation{{Op: "delete", U: 1, V: 2}}},
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	n, err := ReplayWAL(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil || n != len(recs) {
		t.Fatalf("replayed %d (%v), want %d", n, err, len(recs))
	}
	for i := range recs {
		if got[i].Epoch != recs[i].Epoch || len(got[i].Mutations) != len(recs[i].Mutations) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	if got[1].Mutations[1].Weight != 7 || got[1].Mutations[0].Op != "delete" {
		t.Fatalf("mutation payload mangled: %+v", got[1])
	}
}

func TestWALReplayMissingFile(t *testing.T) {
	n, err := ReplayWAL(filepath.Join(t.TempDir(), "nope.wal"), func(Record) error {
		t.Fatal("callback on missing file")
		return nil
	})
	if n != 0 || err != nil {
		t.Fatalf("missing file: n=%d err=%v, want 0/nil", n, err)
	}
}

// TestWALReplayTornTail simulates SIGKILL mid-append: the final line is
// truncated garbage; replay must keep everything before it.
func TestWALReplayTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{Epoch: 1, Mutations: []Mutation{{Op: "insert", U: 0, V: 1, Weight: 1}}})
	w.Append(Record{Epoch: 2, Mutations: []Mutation{{Op: "delete", U: 0, V: 1}}})
	w.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"epoch":3,"mutations":[{"op":"ins`) // torn mid-record, no newline
	f.Close()

	var epochs []uint64
	n, err := ReplayWAL(path, func(r Record) error { epochs = append(epochs, r.Epoch); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(epochs) != 2 || epochs[1] != 2 {
		t.Fatalf("replayed %d epochs %v, want the 2 intact records", n, epochs)
	}
}

// TestWALReplayEpochGapErrors: a hole in the sequence is corruption,
// not crash damage.
func TestWALReplayEpochGapErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gap.wal")
	w, _ := OpenWAL(path)
	w.Append(Record{Epoch: 1})
	w.Append(Record{Epoch: 5})
	w.Close()
	n, err := ReplayWAL(path, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("gap replay: n=%d err=%v, want an epoch-sequence error", n, err)
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reset.wal")
	w, _ := OpenWAL(path)
	w.Append(Record{Epoch: 1})
	w.Append(Record{Epoch: 2})
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	// Appends after the reset start a fresh sequence from the
	// checkpoint's epoch.
	if err := w.Append(Record{Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	var epochs []uint64
	if _, err := ReplayWAL(path, func(r Record) error { epochs = append(epochs, r.Epoch); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || epochs[0] != 3 {
		t.Fatalf("post-reset replay %v, want [3]", epochs)
	}
}

func TestCheckpointRoundTripAndAtomicity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "graph.ckpt")

	if _, ok, err := LoadCheckpoint(path); ok || err != nil {
		t.Fatalf("load of missing checkpoint: ok=%v err=%v", ok, err)
	}

	ck := Checkpoint{
		Epoch:    7,
		Vertices: 4,
		Edges:    []Edge{{0, 1, 3}, {1, 2, 1}, {2, 3, 4}},
	}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadCheckpoint(path)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Epoch != 7 || got.Vertices != 4 || len(got.Edges) != 3 || got.Edges[2] != (Edge{2, 3, 4}) {
		t.Fatalf("checkpoint round trip = %+v", got)
	}

	// Overwrite goes through the same tmp+rename; no .tmp remnant.
	ck.Epoch = 9
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
	got, _, _ = LoadCheckpoint(path)
	if got.Epoch != 9 {
		t.Fatalf("overwritten checkpoint epoch = %d, want 9", got.Epoch)
	}

	// A torn checkpoint (crash mid-write before rename never happens by
	// construction; simulate corruption) is an error, not silence.
	os.WriteFile(path, []byte(`{"epoch":`), 0o644)
	if _, ok, err := LoadCheckpoint(path); ok || err == nil {
		t.Fatalf("corrupt checkpoint: ok=%v err=%v, want error", ok, err)
	}
}

// TestCheckpointBytesMatchMarshal: the streamed checkpoint file holds
// exactly json.Marshal(ck) and a newline — null for nil edges, [] for
// empty ones, and extreme values intact — and loads back unchanged.
func TestCheckpointBytesMatchMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := make([]Edge, 20000) // more than one 64 KiB buffer
	for i := range random {
		random[i] = Edge{U: rng.Int31(), V: -rng.Int31(), Weight: rng.Int63() - rng.Int63()}
	}
	cases := map[string]Checkpoint{
		"nil edges":   {Epoch: 3, Vertices: 5},
		"empty edges": {Epoch: 0, Vertices: 0, Edges: []Edge{}},
		"extremes": {Epoch: math.MaxUint64, Vertices: math.MaxInt, Edges: []Edge{
			{U: math.MinInt32, V: math.MaxInt32, Weight: math.MinInt64}, {U: 0, V: 1, Weight: math.MaxInt64}}},
		"random": {Epoch: 64, Vertices: 1 << 20, Edges: random},
	}
	dir := t.TempDir()
	for name, ck := range cases {
		path := filepath.Join(dir, "graph.ckpt")
		if err := SaveCheckpoint(path, ck); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("%s: checkpoint file differs from json.Marshal (%d bytes, want %d)", name, len(got), len(want))
		}
		back, ok, err := LoadCheckpoint(path)
		if err != nil || !ok {
			t.Fatalf("%s: load: ok=%v err=%v", name, ok, err)
		}
		if back.Epoch != ck.Epoch || back.Vertices != ck.Vertices ||
			(back.Edges == nil) != (ck.Edges == nil) || !slices.Equal(back.Edges, ck.Edges) {
			t.Fatalf("%s: round trip changed the checkpoint", name)
		}
	}
}

// TestWALAppendAfterTornTail is a restart after a crash mid-append:
// replay the log, then append acknowledged records. The next replay must
// see them, not stop again at the old tear, which the first replay cut
// off. A complete record that lacks its newline is torn too: Append
// acknowledges a record only once its whole line is on disk.
func TestWALAppendAfterTornTail(t *testing.T) {
	for name, torn := range map[string]string{
		"mid-record":      `{"epoch":3,"mutations":[{"op":"ins`,
		"missing newline": `{"epoch":3,"mutations":[]}`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.wal")
			w, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			for epoch := uint64(1); epoch <= 2; epoch++ {
				if err := w.Append(Record{Epoch: epoch, Mutations: []Mutation{{Op: "insert", U: 0, V: 1, Weight: 1}}}); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(torn)
			f.Close()

			if n, err := ReplayWAL(path, func(Record) error { return nil }); n != 2 || err != nil {
				t.Fatalf("first replay: %d records (%v), want 2", n, err)
			}
			w, err = OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			for epoch := uint64(3); epoch <= 5; epoch++ {
				if err := w.Append(Record{Epoch: epoch, Mutations: []Mutation{{Op: "delete", U: 0, V: 1}}}); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()

			var epochs []uint64
			n, err := ReplayWAL(path, func(r Record) error { epochs = append(epochs, r.Epoch); return nil })
			if err != nil || n != 5 || epochs[4] != 5 {
				t.Fatalf("replay after appends: %d records %v (%v), want epochs 1..5", n, epochs, err)
			}
		})
	}
}
