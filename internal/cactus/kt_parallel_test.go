package cactus

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// sameResult fails unless two AllMinCuts results are indistinguishable:
// identical cut lists (both materialize in canonical order, so the
// comparison is element-wise) and identical cactus structure — node
// count, cycle count, the exact edge list, and the vertex→node map.
// Worker count must not leak into any observable output.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Lambda != b.Lambda || a.Count != b.Count {
		t.Fatalf("%s: λ/count %d/%d vs %d/%d", label, a.Lambda, a.Count, b.Lambda, b.Count)
	}
	if len(a.Cuts) != len(b.Cuts) {
		t.Fatalf("%s: %d vs %d materialized cuts", label, len(a.Cuts), len(b.Cuts))
	}
	for i := range a.Cuts {
		for v := range a.Cuts[i] {
			if a.Cuts[i][v] != b.Cuts[i][v] {
				t.Fatalf("%s: cut %d differs at vertex %d", label, i, v)
			}
		}
	}
	ca, cb := a.Cactus, b.Cactus
	if ca.NumNodes != cb.NumNodes || ca.NumCycles != cb.NumCycles || len(ca.Edges) != len(cb.Edges) {
		t.Fatalf("%s: cactus shape %v vs %v", label, ca, cb)
	}
	for i := range ca.Edges {
		if ca.Edges[i] != cb.Edges[i] {
			t.Fatalf("%s: cactus edge %d: %v vs %v", label, i, ca.Edges[i], cb.Edges[i])
		}
	}
	for v := range ca.VertexNode {
		if ca.VertexNode[v] != cb.VertexNode[v] {
			t.Fatalf("%s: vertex %d on node %d vs %d", label, v, ca.VertexNode[v], cb.VertexNode[v])
		}
	}
}

// TestKTParallelMatchesSequential sweeps the differential generators and
// requires Workers: 1 and Workers: 4 KT runs to agree cut-for-cut: the
// sharded enumeration keeps every step's chain in step order, so the
// cut list — not just the cut set — must be identical.
func TestKTParallelMatchesSequential(t *testing.T) {
	seeds := uint64(24)
	if testing.Short() {
		seeds = 6
	}
	count := 0
	run := func(label string, g *graph.Graph, seed uint64) {
		t.Helper()
		seq := mustAll(t, g, Options{Seed: seed, Workers: 1})
		par := mustAll(t, g, Options{Seed: seed, Workers: 4})
		sameResult(t, label, seq, par)
		if err := par.Cactus.Validate(g); err != nil {
			t.Fatalf("%s: parallel cactus invalid: %v", label, err)
		}
		count++
	}

	for seed := uint64(1); seed <= seeds; seed++ {
		for _, n := range []int{8, 16, 24, 33} {
			m := n - 1 + int(seed%uint64(2*n))
			run("gnm", gen.ConnectedGNM(n, m, seed*131+uint64(n)), seed)
		}
		g := gen.GNMWeighted(20, 20+int(seed%20), 3, seed*977)
		if !g.IsConnected() {
			g, _ = g.LargestComponent()
		}
		if g.NumVertices() >= 2 {
			run("gnm_weighted", g, seed)
		}
	}
	// Rings: the Θ(n²)-cut worst case, from a dozen steps to 63.
	for _, n := range []int{12, 15, 17, 24, 40, 64} {
		run("ring", gen.Ring(n), uint64(n))
	}
	for _, cs := range [][2]int{{4, 8}, {6, 12}} {
		run("starofcycles", gen.StarOfCycles(cs[0], cs[1]), 7)
	}
	for _, cw := range [][2]int{{8, 4}, {12, 6}} {
		run("cliquechain", gen.CliqueChain(cw[0], cw[1]), 7)
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		g := gen.WattsStrogatz(30, 4, 0.2, seed)
		if !g.IsConnected() {
			g, _ = g.LargestComponent()
		}
		if g.NumVertices() >= 2 {
			run("wattsstrogatz", g, seed)
		}
	}
	t.Logf("%d instances agreed across worker counts", count)
}

// TestKTDeterministicAcrossWorkerCounts pins the determinism contract on
// larger instances: every worker count — including counts exceeding the
// chunk count and the step count — yields byte-identical cactus output.
func TestKTDeterministicAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring_64", gen.Ring(64)},
		{"starofcycles_8_12", gen.StarOfCycles(8, 12)},
		{"gnm_96_240", gen.ConnectedGNM(96, 240, 11)},
	}
	for _, tc := range cases {
		ref := mustAll(t, tc.g, Options{Workers: 1})
		for _, w := range []int{2, 3, 8, 1 << 10} {
			got := mustAll(t, tc.g, Options{Workers: w})
			sameResult(t, tc.name, ref, got)
		}
	}
}

// TestKTErrorMatchesOneWorker pins which failure a wrong λ reports. The
// fixture is K_41 without vertices 5 and 21, plus vertex 5 joined to 0,
// 1 and 2 and vertex 21 joined to 0, 1, 2 and 3. Its BFS order from 0
// is the identity, so under a supplied λ of 10 step 5 finds a cut of
// value 3 and step 21 one of value 4, and the clique steps between them
// are quick. Every worker count must report step 5's error, as one
// worker does: a failure at step 21 may not stop step 5 from running.
func TestKTErrorMatchesOneWorker(t *testing.T) {
	const n = 41
	b := graph.NewBuilder(n)
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u != 5 && u != 21 && v != 5 && v != 21 {
				b.AddEdge(u, v, 1)
			}
		}
	}
	for _, u := range []int32{0, 1, 2} {
		b.AddEdge(5, u, 1)
	}
	for _, u := range []int32{0, 1, 2, 3} {
		b.AddEdge(21, u, 1)
	}
	g := b.MustBuild()
	if order := adjacencyOrder(g, 0); order[5] != 5 || order[21] != 21 {
		t.Fatalf("vertices 5 and 21 are steps %d and %d of the BFS order, want 5 and 21", order[5], order[21])
	}
	const want = "cactus: KT step found a cut of value 3 below λ=10 (wrong Options.Lambda?)"
	for _, workers := range []int{1, 2, 3, 8} {
		for run := 0; run < 100; run++ {
			_, err := ktEnumerate(context.Background(), g, 0, 10, DefaultMaxCuts, workers)
			if err == nil || err.Error() != want {
				t.Fatalf("workers %d, run %d: got error %v, want %q", workers, run, err, want)
			}
		}
	}
}

// countdownCtx is a context whose Err reports context.Canceled from its
// k-th call onward, so a test can cancel at a chosen poll with no sleeps.
type countdownCtx struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return nil
}

// TestKTCancelMidEnumeration cancels ktEnumerate halfway through its
// context polls, all of which happen inside KT steps. The call must
// return an error wrapping context.Canceled, and no worker may start
// more than one step after the cancellation: each step polls at most
// twice once the context is cancelled, so a worker adds at most four
// polls, two for the step it is in and two for one step it claimed
// before any worker recorded the failure.
func TestKTCancelMidEnumeration(t *testing.T) {
	g := gen.Ring(256)
	all := &countdownCtx{Context: context.Background(), k: 1 << 62}
	if _, err := ktEnumerate(all, g, 0, 2, DefaultMaxCuts, 1); err != nil {
		t.Fatal(err)
	}
	polls := all.calls.Load()
	for _, workers := range []int{1, 2, 4} {
		ctx := &countdownCtx{Context: context.Background(), k: polls / 2}
		fam, err := ktEnumerate(ctx, g, 0, 2, DefaultMaxCuts, workers)
		if !errors.Is(err, context.Canceled) || fam != nil {
			t.Fatalf("workers %d, cancelled at poll %d of %d: got %v, %v; want an error wrapping context.Canceled",
				workers, ctx.k, polls, fam, err)
		}
		if extra := ctx.calls.Load() - ctx.k; extra > int64(4*workers) {
			t.Errorf("workers %d: %d polls after the cancellation, want at most %d", workers, extra, 4*workers)
		}
	}
}
