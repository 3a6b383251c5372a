// Package kcore implements the O(m) k-core decomposition of Batagelj and
// Zaversnik, used to prepare the real-world instances of the paper's
// Table 1: the experiments run on the largest connected component of the
// k-core of each input graph, for k values chosen so that the minimum cut
// is not the trivial minimum-degree cut.
//
// Core numbers are computed on the unweighted degree, as in the paper
// (the inputs are unweighted; weights appear only through contraction).
package kcore

import (
	"repro/internal/graph"
)

// CoreNumbers returns the core number of every vertex: the largest k such
// that the vertex belongs to a subgraph with minimum degree ≥ k.
func CoreNumbers(g *graph.Graph) []int32 {
	n := g.NumVertices()
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort vertices by degree.
	bin := make([]int32, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := int32(0)
	for d := int32(0); d <= maxDeg; d++ {
		num := bin[d]
		bin[d] = start
		start += num
	}
	pos := make([]int32, n)  // position of vertex in vert
	vert := make([]int32, n) // vertices sorted by current degree
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = int32(v)
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	core := make([]int32, n)
	for i := 0; i < n; i++ {
		v := vert[i]
		core[v] = deg[v]
		for _, u := range g.Neighbors(v) {
			if deg[u] > deg[v] {
				du := deg[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					// Swap u to the front of its degree block.
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				deg[u]--
			}
		}
	}
	return core
}

// KCore returns the subgraph induced by vertices with core number ≥ k and
// the original ids of its vertices. The result can be disconnected; use
// LargestComponentOfKCore for the paper's experimental pipeline.
func KCore(g *graph.Graph, k int32) (*graph.Graph, []int32) {
	core := CoreNumbers(g)
	keep := make([]bool, g.NumVertices())
	for v, c := range core {
		keep[v] = c >= k
	}
	return g.InducedSubgraph(keep)
}

// LargestComponentOfKCore applies the paper's §A.2 pipeline: take the
// k-core, then its largest connected component. The returned ids map the
// result's vertices back to the input graph.
func LargestComponentOfKCore(g *graph.Graph, k int32) (*graph.Graph, []int32) {
	coreG, coreIDs := KCore(g, k)
	lc, lcIDs := coreG.LargestComponent()
	orig := make([]int32, len(lcIDs))
	for i, id := range lcIDs {
		orig[i] = coreIDs[id]
	}
	return lc, orig
}
