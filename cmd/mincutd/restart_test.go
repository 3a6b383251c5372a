package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	mincut "repro"
	"repro/internal/persist"
)

// postMutate posts one batch and returns the response code + epoch.
func postMutate(t *testing.T, srv *server, body string) (int, uint64) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/mutate", bytes.NewBufferString(body)))
	var resp struct {
		Epoch uint64 `json:"epoch"`
	}
	json.Unmarshal(rec.Body.Bytes(), &resp)
	return rec.Code, resp.Epoch
}

// TestWarmRestartFromWAL is the kill-and-restart acceptance test: a
// server with a WAL applies mutations (including a λ-changing crossing
// delete), is abandoned without any shutdown hook — the in-process
// equivalent of SIGKILL, since every acknowledged batch was fsync'd —
// and a second server boots via the -restore path. It must resume at
// the exact pre-kill epoch with the same λ.
func TestWarmRestartFromWAL(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "mutations.wal")
	g := testGraph(t)
	opts := mincut.SnapshotOptions{
		Solve:   mincut.Options{Seed: 1},
		AllCuts: mincut.AllCutsOptions{Seed: 1, NoMaterialize: true},
	}

	wal, err := persist.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	srvA := newServer(mincut.NewSnapshot(g, opts), 4, serverConfig{wal: wal})
	getJSON(t, srvA, "/allcuts", nil) // warm certificates, as a real daemon would be

	batches := []string{
		`{"mutations":[{"op":"insert","u":2,"v":7,"weight":3}]}`,
		`{"mutations":[{"op":"delete","u":0,"v":5}]}`, // crossing: λ drops via λ−w
		`{"mutations":[{"op":"delete","u":2,"v":7},{"op":"insert","u":3,"v":8,"weight":1}]}`,
	}
	var lastEpoch uint64
	for _, b := range batches {
		code, epoch := postMutate(t, srvA, b)
		if code != http.StatusOK {
			t.Fatalf("mutate %s: status %d", b, code)
		}
		lastEpoch = epoch
	}
	if lastEpoch != 3 {
		t.Fatalf("pre-kill epoch = %d, want 3", lastEpoch)
	}
	var preKill struct {
		Lambda int64 `json:"lambda"`
	}
	getJSON(t, srvA, "/mincut", &preKill)
	// SIGKILL: srvA is abandoned here. No Close, no flush beyond what
	// Append already fsync'd.

	snapB, err := restoreSnapshot(context.Background(), g, opts, walPath)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	srvB := newServer(snapB, 4, serverConfig{})
	var hz struct {
		Epoch uint64 `json:"epoch"`
	}
	getJSON(t, srvB, "/healthz", &hz)
	if hz.Epoch != lastEpoch {
		t.Fatalf("restored epoch = %d, want %d", hz.Epoch, lastEpoch)
	}
	var postKill struct {
		Lambda int64  `json:"lambda"`
		Epoch  uint64 `json:"epoch"`
	}
	if rec := getJSON(t, srvB, "/mincut", &postKill); rec.Code != http.StatusOK {
		t.Fatalf("restored /mincut: %d", rec.Code)
	}
	if postKill.Lambda != preKill.Lambda || postKill.Epoch != lastEpoch {
		t.Fatalf("restored lambda=%d epoch=%d, want %d/%d", postKill.Lambda, postKill.Epoch, preKill.Lambda, lastEpoch)
	}

	// And the restored graph is the real mutated graph, not a replica of
	// the base: a fresh differential solve agrees.
	want := mincut.Solve(snapB.Graph(), mincut.Options{Seed: 99})
	if want.Value != postKill.Lambda {
		t.Fatalf("restored graph solves to %d, served %d", want.Value, postKill.Lambda)
	}
}

// TestCheckpointTruncatesWALAndRestores: with -checkpoint-every 2, the
// WAL is truncated at each checkpoint and a restart goes through
// checkpoint + tail replay.
func TestCheckpointTruncatesWALAndRestores(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "mutations.wal")
	g := testGraph(t)
	opts := mincut.SnapshotOptions{Solve: mincut.Options{Seed: 1}}

	wal, err := persist.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	srvA := newServer(mincut.NewSnapshot(g, opts), 4, serverConfig{wal: wal, checkpointEvery: 2})

	bodies := []string{
		`{"mutations":[{"op":"insert","u":0,"v":9,"weight":2}]}`,
		`{"mutations":[{"op":"insert","u":4,"v":8,"weight":1}]}`, // epoch 2 → checkpoint + truncate
		`{"mutations":[{"op":"delete","u":0,"v":9}]}`,            // epoch 3, only record in the WAL tail
	}
	for _, b := range bodies {
		if code, _ := postMutate(t, srvA, b); code != http.StatusOK {
			t.Fatalf("mutate %s failed", b)
		}
	}

	ck, ok, err := persist.LoadCheckpoint(checkpointPath(walPath))
	if err != nil || !ok {
		t.Fatalf("checkpoint missing: ok=%v err=%v", ok, err)
	}
	if ck.Epoch != 2 {
		t.Fatalf("checkpoint epoch = %d, want 2", ck.Epoch)
	}
	tail := 0
	if _, err := persist.ReplayWAL(walPath, func(persist.Record) error { tail++; return nil }); err != nil {
		t.Fatal(err)
	}
	if tail != 1 {
		t.Fatalf("WAL holds %d records after checkpoint, want 1 (the tail)", tail)
	}

	snapB, err := restoreSnapshot(context.Background(), g, opts, walPath)
	if err != nil {
		t.Fatal(err)
	}
	if snapB.Epoch() != 3 {
		t.Fatalf("restored epoch = %d, want 3", snapB.Epoch())
	}
	// Edge (4,8) from the checkpointed epoch-2 graph must be present,
	// edge (0,9) deleted by the replayed tail must not.
	if snapB.Graph().EdgeWeight(4, 8) != 1 || snapB.Graph().EdgeWeight(0, 9) != 0 {
		t.Fatalf("restored graph wrong: w(4,8)=%d w(0,9)=%d, want 1/0",
			snapB.Graph().EdgeWeight(4, 8), snapB.Graph().EdgeWeight(0, 9))
	}
}

// TestMutateWeightOverflow400NotLogged: a batch whose inserts push the
// total edge weight past int64 is rejected by Apply with a 400 before
// the WAL append, so the epoch stays put and nothing is logged. Each
// insert weighs 2⁶², so every degree still fits; only the total does
// not.
func TestMutateWeightOverflow400NotLogged(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "mutations.wal")
	wal, err := persist.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServerCfg(t, testGraph(t), serverConfig{wal: wal})
	getJSON(t, srv, "/mincut", nil)

	const overflow = `{"mutations":[{"op":"insert","u":0,"v":1,"weight":4611686018427387904},` +
		`{"op":"insert","u":2,"v":3,"weight":4611686018427387904}]}`
	if code, _ := postMutate(t, srv, overflow); code != http.StatusBadRequest {
		t.Fatalf("overflowing batch: status %d, want 400", code)
	}
	records := 0
	if _, err := persist.ReplayWAL(walPath, func(persist.Record) error { records++; return nil }); err != nil {
		t.Fatal(err)
	}
	if records != 0 {
		t.Fatalf("rejected batch logged: %d WAL records", records)
	}
	var mc struct {
		Lambda int64  `json:"lambda"`
		Epoch  uint64 `json:"epoch"`
	}
	getJSON(t, srv, "/mincut", &mc)
	if mc.Lambda != 2 || mc.Epoch != 0 {
		t.Fatalf("after the rejected batch: lambda=%d epoch=%d, want 2/0", mc.Lambda, mc.Epoch)
	}
}

// TestRestoreAfterTornTailKeepsLaterWrites: a daemon dies mid-append,
// leaving a torn last line; the restored daemon acknowledges more
// batches and is restarted again. The second restore must resume at the
// latest acknowledged epoch with its λ, so the torn bytes must not hide
// the records appended after them.
func TestRestoreAfterTornTailKeepsLaterWrites(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "mutations.wal")
	g := testGraph(t)
	opts := mincut.SnapshotOptions{Solve: mincut.Options{Seed: 1}}
	ctx := context.Background()

	wal, err := persist.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	srvA := newServer(mincut.NewSnapshot(g, opts), 4, serverConfig{wal: wal})
	for _, b := range []string{
		`{"mutations":[{"op":"insert","u":2,"v":7,"weight":3}]}`,
		`{"mutations":[{"op":"delete","u":0,"v":5}]}`,
	} {
		if code, _ := postMutate(t, srvA, b); code != http.StatusOK {
			t.Fatalf("mutate %s: status %d", b, code)
		}
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"epoch":3,"mutations":[{"op":"del`) // killed mid-append
	f.Close()

	snapB, err := restoreSnapshot(ctx, g, opts, walPath)
	if err != nil || snapB.Epoch() != 2 {
		t.Fatalf("first restore: epoch %d, err %v; want epoch 2", snapB.Epoch(), err)
	}
	walB, err := persist.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	srvB := newServer(snapB, 4, serverConfig{wal: walB})
	var lastEpoch uint64
	for _, b := range []string{
		`{"mutations":[{"op":"delete","u":1,"v":6}]}`,
		`{"mutations":[{"op":"insert","u":3,"v":8,"weight":2}]}`,
	} {
		code, epoch := postMutate(t, srvB, b)
		if code != http.StatusOK {
			t.Fatalf("mutate %s after restore: status %d", b, code)
		}
		lastEpoch = epoch
	}
	var before struct {
		Lambda int64 `json:"lambda"`
	}
	getJSON(t, srvB, "/mincut", &before)
	walB.Close()

	snapC, err := restoreSnapshot(ctx, g, opts, walPath)
	if err != nil {
		t.Fatal(err)
	}
	if snapC.Epoch() != lastEpoch || lastEpoch != 4 {
		t.Fatalf("second restore: epoch %d, want %d (= 4)", snapC.Epoch(), lastEpoch)
	}
	cut, err := snapC.MinCut(ctx)
	if err != nil || cut.Value != before.Lambda {
		t.Fatalf("second restore: λ=%d (%v), want %d", cut.Value, err, before.Lambda)
	}
}
