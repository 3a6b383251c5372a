package graph

import (
	"fmt"
	"math"
	"sort"
)

// ApplyDelta builds the graph obtained from g by removing every edge
// listed in deletes and then adding every edge in inserts, without
// mutating g (graphs are immutable; this is the copy-on-write rebuild
// behind Snapshot.Apply). Deletes remove whole edges — each {u,v} pair
// must currently exist, and deleting it drops its full aggregated weight.
// Inserts follow FromEdges semantics: weights must be strictly positive,
// parallel inserts aggregate, inserting a pair that survives the deletes
// aggregates onto the existing edge, and the total edge weight of the
// result must fit in int64. Deleting and inserting the same pair in one
// delta replaces the edge (the delete removes the old weight first).
//
// The rebuild is a single linear merge of g's sorted edge stream with the
// sorted insert list — O(m + k log k) for k inserts — followed by the
// same counting-pass CSR assembly as FromEdges, skipping FromEdges' full
// sort of all m+k edges.
func ApplyDelta(g *Graph, inserts []Edge, deletes [][2]int32) (*Graph, error) {
	n := g.NumVertices()

	del := make(map[uint64]bool, len(deletes))
	for _, d := range deletes {
		u, v := d[0], d[1]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: delete (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: delete (%d,%d) is a self loop", u, v)
		}
		if u > v {
			u, v = v, u
		}
		key := pairKey(u, v)
		if del[key] {
			return nil, fmt.Errorf("graph: edge (%d,%d) deleted twice", u, v)
		}
		if !g.HasEdge(u, v) {
			return nil, fmt.Errorf("graph: delete (%d,%d): no such edge", u, v)
		}
		del[key] = true
	}

	// Normalize and aggregate the inserts, exactly like FromEdges.
	var insTotal int64
	ins := make([]Edge, 0, len(inserts))
	for _, e := range inserts {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: insert (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("graph: insert (%d,%d) has non-positive weight %d", e.U, e.V, e.Weight)
		}
		if e.U == e.V {
			continue
		}
		if e.Weight > math.MaxInt64-insTotal {
			return nil, errTotalOverflow
		}
		insTotal += e.Weight
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		ins = append(ins, e)
	}
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].U != ins[j].U {
			return ins[i].U < ins[j].U
		}
		return ins[i].V < ins[j].V
	})
	agg := ins[:0]
	for _, e := range ins {
		if len(agg) > 0 && agg[len(agg)-1].U == e.U && agg[len(agg)-1].V == e.V {
			agg[len(agg)-1].Weight += e.Weight
		} else {
			agg = append(agg, e)
		}
	}

	// Merge the (sorted) existing edge stream with the sorted inserts,
	// summing the surviving weight. It fits in int64 because g's total
	// does; an aggregated weight may wrap here only when the result's
	// total overflows, and that result is rejected below.
	merged := make([]Edge, 0, g.NumEdges()+len(agg))
	var total int64
	i := 0
	emit := func(e Edge) {
		for i < len(agg) && less(agg[i], e) {
			merged = append(merged, agg[i])
			i++
		}
		if i < len(agg) && agg[i].U == e.U && agg[i].V == e.V {
			e.Weight += agg[i].Weight
			i++
		}
		merged = append(merged, e)
	}
	g.ForEachEdge(func(u, v int32, w int64) {
		if del[pairKey(u, v)] {
			// A same-pair insert after a delete starts a fresh edge; let the
			// leading-insert loop in a later emit (or the tail drain) add it.
			return
		}
		total += w
		emit(Edge{U: u, V: v, Weight: w})
	})
	if insTotal > math.MaxInt64-total {
		return nil, errTotalOverflow
	}
	for ; i < len(agg); i++ {
		merged = append(merged, agg[i])
	}

	return fromSortedEdges(n, merged), nil
}

// less orders edges by (U, V).
func less(a, b Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// pairKey packs an ordered pair into a map key.
func pairKey(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// fromSortedEdges assembles the CSR from an already sorted, aggregated,
// validated edge list whose total weight fits in int64, the tail shared
// by FromEdges and ApplyDelta.
func fromSortedEdges(n int, agg []Edge) *Graph {
	xadj := make([]int, n+1)
	for _, e := range agg {
		xadj[e.U+1]++
		xadj[e.V+1]++
	}
	for i := 1; i <= n; i++ {
		xadj[i] += xadj[i-1]
	}
	adj := make([]int32, xadj[n])
	wgt := make([]int64, xadj[n])
	next := make([]int, n)
	copy(next, xadj[:n])
	for _, e := range agg {
		adj[next[e.U]], wgt[next[e.U]] = e.V, e.Weight
		next[e.U]++
		adj[next[e.V]], wgt[next[e.V]] = e.U, e.Weight
		next[e.V]++
	}
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		var d int64
		for i := xadj[v]; i < xadj[v+1]; i++ {
			d += wgt[i]
		}
		deg[v] = d
	}
	return &Graph{xadj: xadj, adj: adj, wgt: wgt, deg: deg}
}
