package graph

import (
	"math"
	"testing"
)

// buildRandomEdges produces a deterministic pseudo-random edge list with
// duplicates and self loops, exercising the FromEdges normalization paths.
func buildRandomEdges(n, m int, seed uint64) []Edge {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := int32(next() % uint64(n))
		v := int32(next() % uint64(n))
		w := int64(next()%100) + 1
		edges = append(edges, Edge{U: u, V: v, Weight: w})
	}
	return edges
}

// The CSR view must expose exactly the same adjacency structure as the
// accessor methods: this is the differential gate for every algorithm that
// was migrated from Neighbors/Weights calls onto raw flat-array loops.
func TestCSRViewEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := MustFromEdges(40, buildRandomEdges(40, 120, seed))
		cs := g.CSR()
		n := g.NumVertices()
		if len(cs.XAdj) != n+1 {
			t.Fatalf("seed %d: len(XAdj) = %d, want %d", seed, len(cs.XAdj), n+1)
		}
		if len(cs.Adj) != 2*g.NumEdges() || len(cs.Wgt) != 2*g.NumEdges() {
			t.Fatalf("seed %d: Adj/Wgt lengths %d/%d, want %d", seed, len(cs.Adj), len(cs.Wgt), 2*g.NumEdges())
		}
		for v := int32(0); int(v) < n; v++ {
			adj := g.Neighbors(v)
			wgt := g.Weights(v)
			lo, hi := cs.XAdj[v], cs.XAdj[v+1]
			if hi-lo != len(adj) || hi-lo != g.Degree(v) {
				t.Fatalf("seed %d v %d: CSR range %d, Neighbors %d, Degree %d",
					seed, v, hi-lo, len(adj), g.Degree(v))
			}
			var d int64
			for i := lo; i < hi; i++ {
				if cs.Adj[i] != adj[i-lo] || cs.Wgt[i] != wgt[i-lo] {
					t.Fatalf("seed %d v %d slot %d: CSR (%d,%d), accessors (%d,%d)",
						seed, v, i-lo, cs.Adj[i], cs.Wgt[i], adj[i-lo], wgt[i-lo])
				}
				d += cs.Wgt[i]
			}
			if cs.Deg[v] != d || cs.Deg[v] != g.WeightedDegree(v) {
				t.Fatalf("seed %d v %d: Deg %d, summed %d, WeightedDegree %d",
					seed, v, cs.Deg[v], d, g.WeightedDegree(v))
			}
		}
		// ForEachEdge must agree with a flat u<v sweep of the view.
		type edge struct {
			u, v int32
			w    int64
		}
		var fromIter, fromCSR []edge
		g.ForEachEdge(func(u, v int32, w int64) { fromIter = append(fromIter, edge{u, v, w}) })
		for u := 0; u < n; u++ {
			for i := cs.XAdj[u]; i < cs.XAdj[u+1]; i++ {
				if v := cs.Adj[i]; int32(u) < v {
					fromCSR = append(fromCSR, edge{int32(u), v, cs.Wgt[i]})
				}
			}
		}
		if len(fromIter) != len(fromCSR) {
			t.Fatalf("seed %d: ForEachEdge %d edges, CSR sweep %d", seed, len(fromIter), len(fromCSR))
		}
		for i := range fromIter {
			if fromIter[i] != fromCSR[i] {
				t.Fatalf("seed %d edge %d: %v vs %v", seed, i, fromIter[i], fromCSR[i])
			}
		}
	}
}

// Weight aggregation and degree summation must reject int64 overflow
// instead of silently wrapping into negative weights.
func TestFromEdgesWeightOverflow(t *testing.T) {
	big := int64(math.MaxInt64) - 1
	if _, err := FromEdges(2, []Edge{{0, 1, big}, {1, 0, big}}); err == nil {
		t.Error("parallel-edge aggregation overflow not detected")
	}
	if _, err := FromEdges(3, []Edge{{0, 1, big}, {0, 2, big}}); err == nil {
		t.Error("weighted-degree overflow not detected")
	}
	// Near the edge but not over: must succeed.
	g, err := FromEdges(3, []Edge{{0, 1, big / 2}, {0, 2, big / 2}})
	if err != nil {
		t.Fatalf("legal near-max weights rejected: %v", err)
	}
	if g.WeightedDegree(0) != 2*(big/2) {
		t.Errorf("WeightedDegree(0) = %d", g.WeightedDegree(0))
	}

	// A cut can outweigh every degree: on the path 0–1–2–3 with weights
	// 2⁶³−2, 1, 2⁶³−2 every degree fits, but the cut {1,2} does not.
	if _, err := FromEdges(4, []Edge{{0, 1, big}, {1, 2, 1}, {2, 3, big}}); err == nil {
		t.Error("heavy path: total-weight overflow not detected")
	}
	// The same path reached from the unit path by two inserts of weight
	// 2⁶³−3.
	path := MustFromEdges(4, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}})
	if _, err := ApplyDelta(path, []Edge{{0, 1, big - 1}, {2, 3, big - 1}}, nil); err == nil {
		t.Error("ApplyDelta: total-weight overflow not detected")
	}
	if _, err := ApplyDelta(path, []Edge{{0, 3, math.MaxInt64 - 2}}, nil); err == nil {
		t.Error("ApplyDelta: total one past MaxInt64 not detected")
	}

	// A total of exactly 2⁶³−1 is legal, and TotalWeight reports it.
	g, err = FromEdges(3, []Edge{{0, 1, 1 << 62}, {1, 2, 1<<62 - 1}})
	if err != nil {
		t.Fatalf("total of exactly MaxInt64 rejected: %v", err)
	}
	if got := g.TotalWeight(); got != math.MaxInt64 {
		t.Errorf("TotalWeight = %d, want %d", got, int64(math.MaxInt64))
	}
	h, err := ApplyDelta(path, []Edge{{0, 3, math.MaxInt64 - 3}}, nil)
	if err != nil {
		t.Fatalf("ApplyDelta to a total of exactly MaxInt64 rejected: %v", err)
	}
	if got := h.TotalWeight(); got != math.MaxInt64 {
		t.Errorf("ApplyDelta: TotalWeight = %d, want %d", got, int64(math.MaxInt64))
	}
	// A delete frees the weight that a same-delta insert then uses.
	h, err = ApplyDelta(h, []Edge{{1, 3, 1}}, [][2]int32{{1, 2}})
	if err != nil {
		t.Fatalf("insert after a freeing delete rejected: %v", err)
	}
	if got := h.TotalWeight(); got != math.MaxInt64 {
		t.Errorf("after delete+insert: TotalWeight = %d, want %d", got, int64(math.MaxInt64))
	}
}
