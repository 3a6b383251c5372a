// Package baseline implements the comparison algorithms referenced by the
// paper's related-work and experiments sections: the Stoer–Wagner simple
// minimum-cut algorithm, the Karger–Stein randomized recursive contraction
// algorithm, and Matula's (2+ε)-approximation (the paper's future-work
// target). They serve as independent correctness oracles and as benchmark
// baselines.
package baseline

import (
	"math"

	"repro/internal/graph"
	"repro/internal/pq"
)

// StoerWagner computes the exact minimum cut with the algorithm of Stoer
// and Wagner (J.ACM 1997): n-1 maximum-adjacency phases, each yielding a
// cut-of-the-phase that is a minimum cut separating the last two vertices
// of the phase order, which are then merged. O(nm + n² log n); the paper's
// experiments (§2.2) note it trails NOI and HO in practice, which our
// benchmarks reproduce.
func StoerWagner(g *graph.Graph) (int64, []bool) {
	n := g.NumVertices()
	if n < 2 {
		return 0, nil
	}
	if side := g.DisconnectedWitness(); side != nil {
		return 0, side
	}

	labels := graph.Identity(n)
	cur := g
	best := int64(math.MaxInt64)
	var bestSide []bool

	for cur.NumVertices() >= 2 {
		phaseVal, last, pair := MAPhase(cur)
		if phaseVal < best {
			best = phaseVal
			bestSide = graph.LiftBlock(labels, last)
		}
		if cur.NumVertices() == 2 {
			break
		}
		m := graph.MergePairMapping(cur.NumVertices(), pair[0], pair[1])
		cur = cur.Contract(m)
		for i := range labels {
			labels[i] = m.Block[labels[i]]
		}
	}
	return best, bestSide
}

// MAPhase runs one maximum-adjacency phase (the Stoer–Wagner building
// block) and returns the cut-of-the-phase (the weighted degree of the
// vertex scanned last — a minimum cut separating the last two vertices of
// the order), that vertex, and the final pair to merge. The exact solvers
// use it as a provably safe single-contraction fallback.
func MAPhase(g *graph.Graph) (int64, int32, [2]int32) {
	cs := g.CSR()
	n := g.NumVertices()
	q := pq.New(pq.KindHeap, n, 0)
	visited := make([]bool, n)
	r := make([]int64, n)
	q.Push(0, 0)
	var last, prev int32 = -1, -1
	for scanned := 0; scanned < n; {
		if q.Empty() {
			for v := 0; v < n; v++ {
				if !visited[v] {
					q.Push(int32(v), 0)
					break
				}
			}
			continue
		}
		x, _ := q.PopMax()
		visited[x] = true
		scanned++
		prev, last = last, x
		for i, end := cs.XAdj[x], cs.XAdj[x+1]; i < end; i++ {
			y := cs.Adj[i]
			if visited[y] {
				continue
			}
			r[y] += cs.Wgt[i]
			if q.Contains(y) {
				q.IncreaseKey(y, r[y])
			} else {
				q.Push(y, r[y])
			}
		}
	}
	return cs.Deg[last], last, [2]int32{prev, last}
}
