// Package pr implements the Padberg–Rinaldi contraction tests (Math.
// Prog. 1990) in the linear-work style of Chekuri et al. (SODA '97), the
// form in which VieCut applies them after every label-propagation
// contraction (paper §2.4).
//
// An edge e=(u,v) may be contracted without destroying any cut of value
// less than the current upper bound λ̂ if any of the following holds
// (c(x) is the weighted degree of x; λ̂ ≤ δ(G) is maintained by all
// callers, so trivial cuts never fall below λ̂):
//
//	PR1: c(e) ≥ λ̂ — any cut separating u,v costs at least c(e).
//	PR2: 2c(e) ≥ min(c(u), c(v)) — moving the lighter endpoint across any
//	     separating cut with ≥2 vertices per side does not increase its
//	     value, so some minimum cut keeps u,v together.
//	PR3: c(e) + Σ_{w∈N(u)∩N(v)} min(c(u,w), c(v,w)) ≥ λ̂ — a separating
//	     cut additionally pays min(c(u,w), c(v,w)) per shared neighbor.
//	PR4: some shared neighbor w has 2(c(e)+c(u,w)) ≥ c(u) and
//	     2(c(e)+c(v,w)) ≥ c(v) — whichever side of a separating cut w
//	     lands on, one endpoint can be moved across for free, as in PR2.
//
// The tests only affect how tight VieCut's bound becomes; the exact
// solver's correctness never depends on them (it only consumes the bound,
// which is always the value of a genuine cut).
package pr

import (
	"repro/internal/dsu"
	"repro/internal/graph"
)

// Unioner abstracts the sequential and concurrent disjoint-set structures.
type Unioner interface {
	Union(x, y int32) bool
}

var (
	_ Unioner = (*dsu.DSU)(nil)
	_ Unioner = (*dsu.Concurrent)(nil)
)

// maxTriangleScan bounds the adjacency walk of the triangle tests PR3 and
// PR4 per edge. Hub-to-hub edges in power-law graphs would otherwise make
// the intersection pass quadratic; skipping them is sound because the
// tests are optional strengthenings (they only affect how tight the
// VieCut bound becomes, never correctness), and PR1/PR2 still consider
// every edge.
const maxTriangleScan = 64

// Apply runs all four tests over every edge once, recording contractions
// in u. It returns the number of successful unions. bound is the current
// upper bound λ̂.
func Apply(g *graph.Graph, bound int64, u Unioner) int {
	cs := g.CSR()
	unions := 0
	n := g.NumVertices()
	// PR1 and PR2: one flat pass over edges (each counted once via a < b).
	for a := 0; a < n; a++ {
		for i, end := cs.XAdj[a], cs.XAdj[a+1]; i < end; i++ {
			b := cs.Adj[i]
			if int32(a) >= b {
				continue
			}
			w := cs.Wgt[i]
			if w >= bound || 2*w >= min64(cs.Deg[a], cs.Deg[b]) {
				if u.Union(int32(a), b) {
					unions++
				}
			}
		}
	}
	// PR3 and PR4 need common neighborhoods. Mark each vertex's adjacency
	// once; process each edge from its higher-degree endpoint so the walk
	// costs min(deg(u), deg(v)).
	mark := make([]int64, n) // mark[w] = c(u,w)+1 while scanning u, 0 otherwise
	for ui := 0; ui < n; ui++ {
		uu := int32(ui)
		ulo, uhi := cs.XAdj[ui], cs.XAdj[ui+1]
		for i := ulo; i < uhi; i++ {
			mark[cs.Adj[i]] = cs.Wgt[i] + 1
		}
		du := uhi - ulo
		cu := cs.Deg[ui]
		for i := ulo; i < uhi; i++ {
			v := cs.Adj[i]
			vlo, vhi := cs.XAdj[v], cs.XAdj[v+1]
			dv := vhi - vlo
			// Process (u,v) from the higher-degree endpoint; ties by id.
			if dv > du || (dv == du && v > uu) {
				continue
			}
			if dv > maxTriangleScan {
				continue // bounded-work guarantee; see maxTriangleScan
			}
			cuv := cs.Wgt[i]
			cv := cs.Deg[v]
			sum := cuv
			pr4 := false
			for j := vlo; j < vhi; j++ {
				w := cs.Adj[j]
				if w == uu || mark[w] == 0 {
					continue
				}
				cuw := mark[w] - 1
				cvw := cs.Wgt[j]
				sum += min64(cuw, cvw)
				if 2*(cuv+cuw) >= cu && 2*(cuv+cvw) >= cv {
					pr4 = true
				}
			}
			if sum >= bound || pr4 {
				if u.Union(uu, v) {
					unions++
				}
			}
		}
		for i := ulo; i < uhi; i++ {
			mark[cs.Adj[i]] = 0
		}
	}
	return unions
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
