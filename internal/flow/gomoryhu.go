package flow

import (
	"context"
	"math"

	"repro/internal/graph"
)

// FlowTree is a flow-equivalent tree of an undirected weighted graph
// (Gomory & Hu 1961, in the contraction-free variant of Gusfield 1990):
// for every pair (u,v), the minimum edge weight on the tree path between
// u and v equals the minimum u-v cut value λ(G,u,v) in the graph. The
// global minimum cut is the lightest tree edge.
//
// Note the classic caveat: Gusfield's construction guarantees equivalent
// flow *values*; the tree's own bipartitions are not necessarily minimum
// cuts for arbitrary pairs. MinCutBetween therefore returns only the
// value; GlobalMinCut re-solves one max-flow to return a genuine witness.
type FlowTree struct {
	parent []int32 // parent[0] = 0 (root)
	weight []int64 // weight[i] = λ(G, i, parent[i]); weight[0] unused
	depth  []int32
}

// GusfieldTree builds a flow-equivalent tree with n-1 max-flow
// computations (MinSTCut). Disconnected graphs are handled naturally:
// cross-component pairs get tree weight 0.
func GusfieldTree(g *graph.Graph) *FlowTree {
	n := g.NumVertices()
	t := &FlowTree{
		parent: make([]int32, n),
		weight: make([]int64, n),
		depth:  make([]int32, n),
	}
	if n == 0 {
		return t
	}
	for s := int32(1); s < int32(n); s++ {
		tt := t.parent[s]
		// s ≠ tt are vertices of g and the context is never cancelled, so
		// MinSTCut cannot fail.
		f, side, _ := MinSTCut(context.Background(), g, s, tt) // side contains s
		t.weight[s] = f
		// Every vertex hanging off tt that fell on s's side moves under s.
		for j := int32(0); j < int32(n); j++ {
			if j != s && j != tt && side[j] && t.parent[j] == tt {
				t.parent[j] = s
			}
		}
		// If tt's own parent fell on s's side, s takes tt's place in the
		// tree (Gusfield's reattachment step). For the root tt = parent[tt]
		// lies on its own side of the cut, so the condition is false.
		if side[t.parent[tt]] {
			t.parent[s] = t.parent[tt]
			t.parent[tt] = s
			t.weight[s] = t.weight[tt]
			t.weight[tt] = f
		}
	}
	// Depths for path queries.
	computed := make([]bool, n)
	computed[0] = true
	var chain []int32
	for v := int32(1); v < int32(n); v++ {
		chain = chain[:0]
		x := v
		for !computed[x] {
			chain = append(chain, x)
			x = t.parent[x]
		}
		for i := len(chain) - 1; i >= 0; i-- {
			t.depth[chain[i]] = t.depth[t.parent[chain[i]]] + 1
			computed[chain[i]] = true
		}
	}
	return t
}

// MinCutBetween returns λ(G, u, v), the minimum u-v cut value, in
// O(tree path length).
func (t *FlowTree) MinCutBetween(u, v int32) int64 {
	if u == v {
		panic("flow: MinCutBetween with u == v")
	}
	best := int64(math.MaxInt64)
	for u != v {
		if t.depth[u] < t.depth[v] {
			u, v = v, u
		}
		if t.weight[u] < best {
			best = t.weight[u]
		}
		u = t.parent[u]
	}
	return best
}

// GlobalMinCut returns the global minimum cut value and, by re-solving a
// single max-flow for the lightest tree edge, a genuine witness side.
func (t *FlowTree) GlobalMinCut(g *graph.Graph) (int64, []bool) {
	n := len(t.parent)
	if n < 2 {
		return 0, nil
	}
	best := int32(1)
	for v := int32(2); v < int32(n); v++ {
		if t.weight[v] < t.weight[best] {
			best = v
		}
	}
	val, side, _ := MinSTCut(context.Background(), g, best, t.parent[best]) // cannot fail, as in GusfieldTree
	if val != t.weight[best] {
		panic("flow: tree weight disagrees with recomputed max-flow")
	}
	return val, side
}

// Parent exposes the tree structure: the parent of v and the weight of
// the connecting edge (v=0 is the root; its values are (0,0)).
func (t *FlowTree) Parent(v int32) (int32, int64) { return t.parent[v], t.weight[v] }

// Len returns the number of vertices.
func (t *FlowTree) Len() int { return len(t.parent) }
