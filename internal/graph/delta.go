package graph

import (
	"fmt"
	"math"
	"slices"
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
// The rebuild patches g's CSR instead of re-assembling it: each run of
// vertices the delta does not touch is copied in bulk, and each touched
// vertex's neighbour-sorted list is merged with its sorted changes. For
// k changes it costs one O(n + m) copy plus O(k log k + Σ deg) for the
// touched vertices, and the result is the graph FromEdges would build.
func ApplyDelta(g *Graph, inserts []Edge, deletes [][2]int32) (*Graph, error) {
	n := g.NumVertices()

	del := make(map[uint64]bool, len(deletes))
	arcs := make([]arcChange, 0, 2*(len(deletes)+len(inserts)))
	var delTotal int64
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
		w := g.EdgeWeight(u, v)
		if w == 0 {
			return nil, fmt.Errorf("graph: delete (%d,%d): no such edge", u, v)
		}
		del[key] = true
		delTotal += w
		arcs = append(arcs, arcChange{from: u, to: v, del: true}, arcChange{from: v, to: u, del: true})
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
	// The surviving weight fits in int64 because g's total does; checking
	// the result's total here also keeps every merged weight below from
	// wrapping.
	if insTotal > math.MaxInt64-(g.TotalWeight()-delTotal) {
		return nil, errTotalOverflow
	}

	for _, e := range agg {
		arcs = append(arcs, arcChange{from: e.U, to: e.V, add: e.Weight}, arcChange{from: e.V, to: e.U, add: e.Weight})
	}
	// Sort the arc changes by (from, to) and fold a pair's delete and
	// insert into one change; each arc has at most one of each.
	slices.SortFunc(arcs, func(a, b arcChange) int {
		if a.from != b.from {
			return int(a.from) - int(b.from)
		}
		return int(a.to) - int(b.to)
	})
	changes := arcs[:0]
	for _, a := range arcs {
		if k := len(changes) - 1; k >= 0 && changes[k].from == a.from && changes[k].to == a.to {
			changes[k].del = changes[k].del || a.del
			changes[k].add += a.add
		} else {
			changes = append(changes, a)
		}
	}

	xadj := make([]int, n+1)
	adj := make([]int32, 0, len(g.adj)+2*len(agg))
	wgt := make([]int64, 0, len(g.adj)+2*len(agg))
	deg := make([]int64, n)
	// copyRun copies the untouched vertices [lo, hi) in bulk, shifting
	// their offsets.
	copyRun := func(lo, hi int) {
		shift := len(adj) - g.xadj[lo]
		for v := lo; v < hi; v++ {
			xadj[v] = g.xadj[v] + shift
		}
		adj = append(adj, g.adj[g.xadj[lo]:g.xadj[hi]]...)
		wgt = append(wgt, g.wgt[g.xadj[lo]:g.xadj[hi]]...)
		copy(deg[lo:hi], g.deg[lo:hi])
	}
	next := 0 // first vertex not yet written
	for c := 0; c < len(changes); {
		t := changes[c].from
		copyRun(next, int(t))
		// Merge t's neighbour-sorted list with its changes, which are
		// sorted by neighbour too.
		xadj[t] = len(adj)
		i, end := g.xadj[t], g.xadj[t+1]
		for ; c < len(changes) && changes[c].from == t; c++ {
			ch := changes[c]
			j := i
			for j < end && g.adj[j] < ch.to {
				j++
			}
			adj, wgt = append(adj, g.adj[i:j]...), append(wgt, g.wgt[i:j]...)
			w := ch.add
			if j < end && g.adj[j] == ch.to {
				if !ch.del {
					w += g.wgt[j]
				}
				j++
			}
			if w > 0 {
				adj, wgt = append(adj, ch.to), append(wgt, w)
			}
			i = j
		}
		adj, wgt = append(adj, g.adj[i:end]...), append(wgt, g.wgt[i:end]...)
		var d int64
		for _, w := range wgt[xadj[t]:] {
			d += w
		}
		deg[t] = d
		next = int(t) + 1
	}
	copyRun(next, n)
	xadj[n] = len(adj)
	return &Graph{xadj: xadj, adj: adj, wgt: wgt, deg: deg}, nil
}

// arcChange is one delta entry on the arc from→to: del removes the
// existing arc, and add is the weight inserted after that.
type arcChange struct {
	from, to int32
	del      bool
	add      int64
}

// pairKey packs an ordered pair into a map key.
func pairKey(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// fromSortedEdges assembles the CSR from an already sorted, aggregated,
// validated edge list whose total weight fits in int64, the tail of
// FromEdges.
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
