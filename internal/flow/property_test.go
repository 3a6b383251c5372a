package flow

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// Property: Edmonds–Karp and Dinic agree on arbitrary graphs and
// terminal pairs, and both witnesses are genuine minimum cuts.
func TestPropertyMaxFlowImplementationsAgree(t *testing.T) {
	f := func(seed uint64, sRaw, tRaw uint8) bool {
		n := 10
		g := gen.GNMWeighted(n, 25, 12, seed)
		s := int32(sRaw % uint8(n))
		tt := int32(tRaw % uint8(n))
		if s == tt {
			return true
		}
		ek, ekSide := maxFlowEK(g, s, tt)
		dv, dSide := minSTCut(g, s, tt)
		if ek != dv {
			t.Logf("EK %d != Dinic %d", ek, dv)
			return false
		}
		if verify.CutValue(g, ekSide) != ek || verify.CutValue(g, dSide) != dv {
			t.Log("witness mismatch")
			return false
		}
		if !ekSide[s] || ekSide[tt] || !dSide[s] || dSide[tt] {
			t.Log("terminals on wrong sides")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: max-flow is bounded by both terminal degrees and is symmetric
// in s and t on undirected graphs.
func TestPropertyMaxFlowBoundsAndSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.GNMWeighted(9, 20, 9, seed)
		fwd, _ := minSTCut(g, 0, 8)
		rev, _ := minSTCut(g, 8, 0)
		if fwd != rev {
			t.Logf("asymmetric flow %d vs %d", fwd, rev)
			return false
		}
		if fwd > g.WeightedDegree(0) || fwd > g.WeightedDegree(8) {
			t.Log("flow exceeds a terminal degree")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Hao–Orlin equals the minimum over s-t cuts from one fixed
// source (the Gomory–Hu argument) on random graphs.
func TestPropertyHaoOrlinEqualsMinOverST(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.ConnectedGNM(8, 20, seed)
		ho, _ := HaoOrlin(g)
		best := int64(1) << 62
		for v := int32(1); v < 8; v++ {
			st, _ := minSTCut(g, 0, v)
			if st < best {
				best = st
			}
		}
		return ho == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the flow tree's pairwise values match direct max-flow for
// random pairs on random graphs (a lighter version of the exhaustive
// test, driven by quick).
func TestPropertyFlowTreeMatchesDirect(t *testing.T) {
	f := func(seed uint64, aRaw, bRaw uint8) bool {
		g := gen.GNMWeighted(11, 30, 6, seed)
		u := int32(aRaw % 11)
		v := int32(bRaw % 11)
		if u == v {
			return true
		}
		tree := GusfieldTree(g)
		direct, _ := minSTCut(g, u, v)
		return tree.MinCutBetween(u, v) == direct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Failure injection: zero-capacity behaviour is impossible by
// construction (builder rejects non-positive weights), so the minimal
// positive capacities must appear in cuts correctly.
func TestUnitBridge(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1<<30)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1<<30)
	g := b.MustBuild()
	v, side := minSTCut(g, 0, 3)
	if v != 1 {
		t.Fatalf("flow = %d, want 1", v)
	}
	if verify.CutValue(g, side) != 1 {
		t.Fatal("witness mismatch")
	}
}
