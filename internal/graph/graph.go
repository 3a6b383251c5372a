// Package graph provides the weighted undirected graph representation used
// by every algorithm in this repository: a compact CSR (compressed sparse
// row) structure with int32 vertex ids and int64 edge weights, plus
// builders, contraction, subgraph extraction and connectivity helpers.
//
// Graphs are immutable once built. Parallel edges are aggregated by weight
// and self loops are dropped at build time, matching the contraction
// semantics of Nagamochi–Ono–Ibaraki style algorithms: contracting (u,v)
// merges the vertices, sums parallel edge weights and discards the loop.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Graph is a weighted undirected graph in CSR form. Every undirected edge
// {u,v} is stored twice, once in the adjacency list of each endpoint, with
// identical weight. Weights are strictly positive.
type Graph struct {
	xadj []int   // length n+1; adjacency of v is adj[xadj[v]:xadj[v+1]]
	adj  []int32 // neighbor ids, length 2m
	wgt  []int64 // edge weights parallel to adj
	deg  []int64 // cached weighted degrees, length n
}

// CSR is the read-only flat view of a graph's SoA arrays, the layout every
// hot scan in this repository runs on: the neighbors of v are
// Adj[XAdj[v]:XAdj[v+1]] with parallel weights in Wgt, and Deg caches the
// weighted degrees. The slices alias the graph's internal storage and must
// not be modified; algorithms that want raw index loops (CAPFOREST scans,
// residual-network construction, label propagation, MA orders) take this
// view once instead of calling Neighbors/Weights per vertex.
type CSR struct {
	XAdj []int   // length n+1; prefix offsets into Adj/Wgt
	Adj  []int32 // neighbor ids, length 2m
	Wgt  []int64 // edge weights parallel to Adj
	Deg  []int64 // weighted degrees, length n
}

// CSR returns the flat array view of g. The returned slices alias the
// graph's storage; treat them as immutable.
func (g *Graph) CSR() CSR { return CSR{XAdj: g.xadj, Adj: g.adj, Wgt: g.wgt, Deg: g.deg} }

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int { return len(g.xadj) - 1 }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Neighbors returns the neighbor ids of v. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 { return g.adj[g.xadj[v]:g.xadj[v+1]] }

// Weights returns the edge weights parallel to Neighbors(v). The returned
// slice aliases the graph's internal storage and must not be modified.
func (g *Graph) Weights(v int32) []int64 { return g.wgt[g.xadj[v]:g.xadj[v+1]] }

// Degree returns the number of incident edges of v (its unweighted degree).
func (g *Graph) Degree(v int32) int { return g.xadj[v+1] - g.xadj[v] }

// WeightedDegree returns the sum of weights of the edges incident to v.
func (g *Graph) WeightedDegree(v int32) int64 { return g.deg[v] }

// MinDegreeVertex returns a vertex of minimum weighted degree and its
// degree. It returns (-1, 0) for the empty graph.
func (g *Graph) MinDegreeVertex() (int32, int64) {
	n := g.NumVertices()
	if n == 0 {
		return -1, 0
	}
	best := int32(0)
	bestDeg := g.deg[0]
	for v := 1; v < n; v++ {
		if g.deg[v] < bestDeg {
			best = int32(v)
			bestDeg = g.deg[v]
		}
	}
	return best, bestDeg
}

// TotalWeight returns the sum of all edge weights (each undirected edge
// counted once). The constructors guarantee that it fits in int64.
func (g *Graph) TotalWeight() int64 {
	var s int64
	g.ForEachEdge(func(_, _ int32, w int64) { s += w })
	return s
}

// EdgeWeight returns the weight of edge {u,v}, or 0 if no such edge exists.
// It scans the shorter of the two adjacency lists.
func (g *Graph) EdgeWeight(u, v int32) int64 {
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	adj := g.Neighbors(u)
	for i, w := range adj {
		if w == v {
			return g.Weights(u)[i]
		}
	}
	return 0
}

// HasEdge reports whether the edge {u,v} exists.
func (g *Graph) HasEdge(u, v int32) bool { return g.EdgeWeight(u, v) != 0 }

// ForEachEdge calls fn once per undirected edge {u,v} with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int32, w int64)) {
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for i := g.xadj[u]; i < g.xadj[u+1]; i++ {
			v := g.adj[i]
			if int32(u) < v {
				fn(int32(u), v, g.wgt[i])
			}
		}
	}
}

// Edges returns all undirected edges with u < v.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.ForEachEdge(func(u, v int32, w int64) { out = append(out, Edge{u, v, w}) })
	return out
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumVertices(), g.NumEdges())
}

// Edge is an undirected weighted edge.
type Edge struct {
	U, V   int32
	Weight int64
}

// Builder accumulates edges and produces an immutable Graph. It aggregates
// parallel edges by summing weights, drops self loops, and rejects
// non-positive weights and out-of-range endpoints at Build time.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n vertices (ids 0..n-1).
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records the undirected edge {u,v} with weight w. Duplicate pairs
// are aggregated at Build time.
func (b *Builder) AddEdge(u, v int32, w int64) { b.edges = append(b.edges, Edge{u, v, w}) }

// Build validates and assembles the graph. The Builder may be reused
// afterwards; the built graph does not alias its storage.
func (b *Builder) Build() (*Graph, error) {
	return FromEdges(b.n, b.edges)
}

// MustBuild is Build that panics on error, for tests and generators whose
// edges are correct by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges assembles a graph from an edge list. Self loops are dropped,
// parallel edges aggregated. Out-of-range endpoints, non-positive weights
// and a total edge weight above math.MaxInt64 are rejected with an error
// (so arbitrary, e.g. fuzz-generated, edge lists can never corrupt the
// CSR arrays, wrap a weight into a negative value or panic downstream
// algorithms that rely on strictly positive weights).
//
// The total weight bounds every aggregated edge weight, every weighted
// degree, every cut and every degree of a contracted graph, so checking
// it once is what lets the solvers add weights without overflow checks.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds int32", n)
	}
	var total int64
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) has non-positive weight %d", e.U, e.V, e.Weight)
		}
		if e.U == e.V {
			continue
		}
		if e.Weight > math.MaxInt64-total {
			return nil, errTotalOverflow
		}
		total += e.Weight
	}
	// Normalize: drop loops, orient u < v, sort, aggregate.
	norm := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		norm = append(norm, e)
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i].U != norm[j].U {
			return norm[i].U < norm[j].U
		}
		return norm[i].V < norm[j].V
	})
	agg := norm[:0]
	for _, e := range norm {
		if len(agg) > 0 && agg[len(agg)-1].U == e.U && agg[len(agg)-1].V == e.V {
			agg[len(agg)-1].Weight += e.Weight
		} else {
			agg = append(agg, e)
		}
	}
	return fromSortedEdges(n, agg), nil
}

// errTotalOverflow rejects a graph whose edge weights sum past
// math.MaxInt64.
var errTotalOverflow = errors.New("graph: total edge weight overflows int64")

// MustFromEdges is FromEdges that panics on error.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	h := &Graph{
		xadj: append([]int(nil), g.xadj...),
		adj:  append([]int32(nil), g.adj...),
		wgt:  append([]int64(nil), g.wgt...),
		deg:  append([]int64(nil), g.deg...),
	}
	return h
}

// Equal reports whether g and h have identical vertex counts and edge sets
// (independent of adjacency ordering).
func Equal(g, h *Graph) bool {
	if g.NumVertices() != h.NumVertices() || g.NumEdges() != h.NumEdges() {
		return false
	}
	ge, he := g.Edges(), h.Edges()
	for i := range ge {
		if ge[i] != he[i] {
			return false
		}
	}
	return true
}
