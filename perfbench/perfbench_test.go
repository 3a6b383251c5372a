package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	mincut "repro"
)

func TestTailSelection(t *testing.T) {
	for _, c := range []struct {
		n, idx int
		pct    float64
	}{
		{1, 0, 100}, {10, 9, 100}, {11, 0, 100.0 / 11}, {60, 49, 100 * 50.0 / 60}, {1000, 989, 99},
	} {
		if got := tailIndex(c.n); got != c.idx {
			t.Errorf("tailIndex(%d) = %d, want %d", c.n, got, c.idx)
		}
		if got := tailPercentile(c.n); got != c.pct {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.pct)
		}
	}
	// 1..100 ms, shuffled: the tail is 90 ms with 91..100 beyond it.
	var lat []time.Duration
	for i := 100; i >= 1; i-- {
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	d := summarize(lat)
	if d.n != 100 || d.p50 != 50.5 || d.tail != 90 || d.tailPct != 90 {
		t.Errorf("summarize(1..100 ms) = %+v, want n=100 p50=50.5 tail=90 at p90", d)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120},  // reaches past its parent
		{ID: 5, Parent: 2, Start: 15, End: 20},   // grandchild of span 1
		{ID: 6, Parent: 1, Start: 200, End: 210}, // outside its parent
		{ID: 7, Start: 5, End: 6},                // unrelated root
	}
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 20 - 5, 3: 30, 4: 30, 5: 5, 6: 10, 7: 1}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}

	tr := newTracer()
	outer := tr.begin("outer", 0, 1)
	inner := tr.call("inner", outer, 1, func() { time.Sleep(2 * time.Millisecond) })
	tr.end(outer)
	self := tr.selfOf([]int64{outer, inner})
	if self[1] < 2*time.Millisecond || self[0] >= self[1] {
		t.Errorf("recorded self times outer=%v inner=%v: inner slept 2ms, outer did nothing else", self[0], self[1])
	}
	var nilTracer *tracer
	if id := nilTracer.call("x", 0, 0, func() {}); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	var b benchmarkFile
	readJSON(t, "../BENCHMARK.json", &b)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not 1-64 letters, digits, _ . - starting with a letter or digit", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is not 1-16 letters, digits, _ / %% . -", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range b.Workloads {
		check(w.Name, "")
	}
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit)
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit)
	}
	for _, m := range endToEnd([]float64{1}, phase{elapsed: time.Second}) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("emitted metric %q (unit %q) breaks the character rules", m.name, m.unit)
		}
	}
	for _, m := range layerMetrics {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("emitted metric %q (unit %q) breaks the character rules", m.name, m.unit)
		}
	}
}

// TestBenchmarkFileMatchesCode checks BENCHMARK.json and layers.json
// against what the benchmark emits: the same workloads, the same
// metrics with the same units, and a layer map that names only those.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	var b benchmarkFile
	readJSON(t, "../BENCHMARK.json", &b)
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
		if _, err := runWorkload(context.Background(), &env{workload: w.Name + "?"}); err == nil {
			t.Errorf("workload %q accepted", w.Name+"?")
		}
	}
	if !slices.Equal(workloads, []string{"solve", "allcuts", "serve"}) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs solve, allcuts, serve", workloads)
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	emitted := endToEnd([]float64{1}, phase{elapsed: time.Second})
	if len(emitted) != len(b.EndToEnd) {
		t.Errorf("benchmark emits %d end-to-end metrics, BENCHMARK.json lists %d", len(emitted), len(b.EndToEnd))
	}
	for _, m := range emitted {
		if unit, ok := e2e[m.name]; !ok || unit != m.unit {
			t.Errorf("emitted end-to-end metric %s (%s) is listed as %q", m.name, m.unit, unit)
		}
	}
	if e2e["setup_s"] != "s" {
		t.Error("BENCHMARK.json lacks setup_s in seconds")
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, benchmark emits %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] is %s (%s), benchmark emits %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}

	var layers struct {
		Moves map[string][][2]string `json:"moves"`
	}
	readJSON(t, "layers.json", &layers)
	for _, m := range layerMetrics {
		if len(layers.Moves[m.name]) == 0 {
			t.Errorf("layers.json does not say what %s should move", m.name)
		}
	}
	for name, moves := range layers.Moves {
		if !slices.ContainsFunc(layerMetrics, func(m struct{ name, unit string }) bool { return m.name == name }) {
			t.Errorf("layers.json names %s, which the benchmark does not emit", name)
		}
		for _, mv := range moves {
			if _, ok := e2e[mv[0]]; !ok || !slices.Contains(workloads, mv[1]) {
				t.Errorf("layers.json: %s moves %s on %s, which is not an emitted metric and workload", name, mv[0], mv[1])
			}
		}
	}
}

func TestRecordedFingerprints(t *testing.T) {
	var f fingerprintFile
	readJSON(t, "fingerprints.json", &f)
	for _, w := range []string{"solve", "allcuts", "serve"} {
		fs := f.Inputs[w]
		if len(fs) != fingerprintSeeds {
			t.Fatalf("fingerprints.json has %d %s inputs, want %d", len(fs), w, fingerprintSeeds)
		}
		hashes := map[string]bool{}
		for s, fp := range fs {
			if fp.N != fs[0].N || fp.M != fs[0].M || fp.Delta != fs[0].Delta || fp.Lambda != fs[0].Lambda {
				t.Errorf("%s input of seed %d (%s) is not the graph of seed 0 (%s) relabelled", w, s, fp, fs[0])
			}
			hashes[fp.Hash] = true
		}
		if len(hashes) != len(fs) {
			t.Errorf("%s inputs have %d distinct edge hashes for %d seeds", w, len(hashes), len(fs))
		}
	}
	for _, w := range []string{"allcuts", "serve"} {
		e := &env{workload: w, seed: 3 + fingerprintSeeds, sz: fullSizes, out: io.Discard}
		if _, err := reference(e, buildInput(w, fullSizes, inputSeed(e.seed))); err != nil {
			t.Error(err)
		}
		if _, err := reference(e, buildInput(w, fullSizes, 4)); err == nil {
			t.Errorf("a %s input of another seed passed the fingerprint check", w)
		}
	}
}

func TestWriteStream(t *testing.T) {
	in := buildInput("serve", sizes{ServeLog: 10}, 1)
	ws := newWriteStream(in, 7)
	g, err := ws.base(in.g)
	if err != nil {
		t.Fatal(err)
	}
	_, delta := in.g.MinDegreeVertex()
	for i := 0; i < 12; i++ {
		batch := ws.next()
		if len(batch) != 2*batchDeletes {
			t.Fatalf("batch %d has %d mutations", i, len(batch))
		}
		touches := false
		var ins [][2]int32
		var del [][2]int32
		for _, m := range batch {
			if in.g.WeightedDegree(m.U) == delta || in.g.WeightedDegree(m.V) == delta {
				touches = touches || m.Op.String() == "delete"
			}
			if m.Op.String() == "delete" {
				del = append(del, [2]int32{m.U, m.V})
			} else {
				ins = append(ins, [2]int32{m.U, m.V})
			}
		}
		if want := i%minDegreeEach == minDegreeEach-1; touches != want {
			t.Errorf("batch %d deletes at a minimum-degree vertex: %v, want %v", i, touches, want)
		}
		if slices.ContainsFunc(del, func(d [2]int32) bool { return slices.Contains(ins, d) }) {
			t.Errorf("batch %d re-inserts an edge it deletes", i)
		}
		next, _, err := mincut.NewSnapshot(g, mincut.SnapshotOptions{}).Apply(context.Background(), batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if next.Graph().NumEdges() != g.NumEdges() {
			t.Fatalf("batch %d changed the edge count", i)
		}
		g = next.Graph()
	}
}

// TestRingWriteStream checks that the writes on the ring of cliques stay
// inside the cliques: the write base and every epoch keep λ = 2.
func TestRingWriteStream(t *testing.T) {
	in := buildInput("allcuts", sizes{Cliques: 8, CliqueSize: 5}, 3)
	ws := newWriteStream(in, 11)
	g, err := ws.base(in.g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if cut := mincut.Solve(g, mincut.Options{}); cut.Value != 2 {
			t.Fatalf("epoch %d of the ring has λ=%d, want 2", i, cut.Value)
		}
		if i == 12 {
			break
		}
		batch := ws.next()
		for _, m := range batch {
			if in.cliqueOf[m.U] != in.cliqueOf[m.V] {
				t.Errorf("batch %d mutates ring edge %d-%d", i, m.U, m.V)
			}
		}
		next, _, err := mincut.NewSnapshot(g, mincut.SnapshotOptions{}).Apply(context.Background(), batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		g = next.Graph()
	}
}

// TestCalm checks the steal gate: a phase over maxStealPct is repeated,
// and when no repeat can end within runBudget the run gets no result.
func TestCalm(t *testing.T) {
	steals := []float64{maxStealPct + 5, maxStealPct + 1, maxStealPct}
	var got []float64
	measure := func() (phase, error) {
		ph := phase{stealPct: steals[len(got)]}
		got = append(got, ph.stealPct)
		return ph, nil
	}
	e := &env{dur: time.Second, start: time.Now(), out: io.Discard}
	if ph, err := calm(e, measure); err != nil || ph.stealPct != maxStealPct || len(got) != 3 {
		t.Errorf("calm ran %d phases and returned steal %v, %v; want the third, at %d%%", len(got), ph.stealPct, err, maxStealPct)
	}
	got = nil
	e.start = time.Now().Add(-runBudget)
	if _, err := calm(e, measure); err == nil || len(got) != 1 {
		t.Errorf("calm past its budget ran %d phases, err %v; want one phase and an error", len(got), err)
	}
	got = nil
	e.trace = true
	if _, err := calm(e, measure); err != nil || len(got) != 1 {
		t.Errorf("traced calm ran %d phases, err %v; want one phase, reported", len(got), err)
	}
}

// TestSmoke runs every workload briefly on small inputs, untraced and
// traced, with the daemon built from this repository.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/mincutd")
	}
	dir := t.TempDir()
	daemonBin := filepath.Join(dir, "mincutd")
	build := exec.Command("go", "build", "-o", daemonBin, "repro/cmd/mincutd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build repro/cmd/mincutd: %v\n%s", err, out)
	}
	small := sizes{SolveLog: 10, ServeLog: 10, Cliques: 8, CliqueSize: 5}
	for _, w := range []string{"solve", "allcuts", "serve"} {
		for _, trace := range []bool{false, true} {
			e := &env{workload: w, seed: 5, dur: time.Second, trace: trace, sz: small, setupReps: 2,
				daemon: daemonBin, workDir: dir, workers: 2, out: io.Discard, start: time.Now()}
			rep, err := runWorkload(context.Background(), e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w, trace, rep.failed, rep.attempted, rep.wrong)
			}
			for _, m := range rep.e2e {
				if !(m.value > 0) {
					t.Errorf("%s trace=%v: %s = %v, want > 0", w, trace, m.name, m.value)
				}
			}
			res := printReport(e, rep)
			want := len(rep.e2e)
			if trace {
				want = len(layerMetrics)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: result has %d metrics, want %d", w, trace, len(res.Metrics), want)
			}
		}
	}
}
