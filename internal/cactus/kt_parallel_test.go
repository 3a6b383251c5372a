package cactus

import (
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
// sharded enumeration concatenates per-chunk chains in step order, so
// the cut list — not just the cut set — must be identical.
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
	// Rings: the Θ(n²)-cut worst case, the shard sizes straddling the
	// sequential-fallback threshold (2·ktMinChunkSteps) on both sides.
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
