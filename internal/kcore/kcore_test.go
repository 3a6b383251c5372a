package kcore

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// naiveCoreNumbers peels minimum-degree vertices one at a time.
func naiveCoreNumbers(g *graph.Graph) []int32 {
	n := g.NumVertices()
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
	}
	removed := make([]bool, n)
	core := make([]int32, n)
	var k int32
	for round := 0; round < n; round++ {
		best := int32(-1)
		for v := 0; v < n; v++ {
			if !removed[v] && (best < 0 || deg[v] < deg[best]) {
				best = int32(v)
			}
		}
		if deg[best] > k {
			k = deg[best]
		}
		core[best] = k
		removed[best] = true
		for _, u := range g.Neighbors(best) {
			if !removed[u] {
				deg[u]--
			}
		}
	}
	return core
}

func TestCoreNumbersAgainstNaive(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.GNM(60, 150, seed)
		got := CoreNumbers(g)
		want := naiveCoreNumbers(g)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("seed %d: core[%d] = %d, want %d", seed, v, got[v], want[v])
			}
		}
	}
}

func TestCoreNumbersKnown(t *testing.T) {
	// A triangle with a pendant: triangle vertices have core 2, pendant 1.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	core := CoreNumbers(g)
	want := []int32{2, 2, 2, 1}
	for v := range want {
		if core[v] != want[v] {
			t.Errorf("core[%d] = %d, want %d", v, core[v], want[v])
		}
	}
}

func TestCoreNumbersCompleteGraph(t *testing.T) {
	g := gen.Complete(7)
	for v, c := range CoreNumbers(g) {
		if c != 6 {
			t.Errorf("core[%d] = %d, want 6", v, c)
		}
	}
}

func TestKCoreMinimumDegreeInvariant(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := gen.BarabasiAlbert(500, 3, seed)
		for _, k := range []int32{2, 3, 4, 5} {
			sub, orig := KCore(g, k)
			if sub.NumVertices() == 0 {
				continue
			}
			for v := 0; v < sub.NumVertices(); v++ {
				if int32(sub.Degree(int32(v))) < k {
					t.Fatalf("seed %d k=%d: vertex %d (orig %d) has degree %d < k",
						seed, k, v, orig[v], sub.Degree(int32(v)))
				}
			}
		}
	}
}

// The k-core is the *maximum* subgraph with min degree >= k: peeling the
// graph by repeatedly deleting low-degree vertices must give the same
// vertex set.
func TestKCoreIsMaximal(t *testing.T) {
	g := gen.GNM(80, 240, 3)
	k := int32(4)
	sub, orig := KCore(g, k)
	inCore := make([]bool, g.NumVertices())
	for _, id := range orig {
		inCore[id] = true
	}
	// Peel naively.
	alive := make([]bool, g.NumVertices())
	for i := range alive {
		alive[i] = true
	}
	deg := make([]int32, g.NumVertices())
	for v := range deg {
		deg[v] = int32(g.Degree(int32(v)))
	}
	changed := true
	for changed {
		changed = false
		for v := 0; v < g.NumVertices(); v++ {
			if alive[v] && deg[v] < k {
				alive[v] = false
				changed = true
				for _, u := range g.Neighbors(int32(v)) {
					if alive[u] {
						deg[u]--
					}
				}
			}
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		if alive[v] != inCore[v] {
			t.Fatalf("vertex %d: peel says %v, KCore says %v", v, alive[v], inCore[v])
		}
	}
	_ = sub
}

func TestLargestComponentOfKCore(t *testing.T) {
	// Two triangles plus a pendant path hanging off the first; the path
	// peels away at k=2 and the triangles are separate 2-core components.
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 3, 1) // pendant path 2-3-4
	b.AddEdge(3, 4, 1)
	b.AddEdge(5, 6, 1)
	b.AddEdge(6, 7, 1)
	b.AddEdge(5, 7, 1)
	g := b.MustBuild()
	lc, orig := LargestComponentOfKCore(g, 2)
	if lc.NumVertices() != 3 || lc.NumEdges() != 3 {
		t.Fatalf("largest 2-core component has n=%d m=%d, want a triangle", lc.NumVertices(), lc.NumEdges())
	}
	// Must be one of the triangles.
	if !(orig[0] == 0 || orig[0] == 5) {
		t.Errorf("unexpected component ids %v", orig)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	if len(CoreNumbers(g)) != 0 {
		t.Error("core numbers of empty graph should be empty")
	}
}
