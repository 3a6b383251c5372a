package baseline

import (
	"math"

	"repro/internal/capforest"
	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/pq"
)

// Matula computes a (2+ε)-approximate minimum cut with Matula's linear
// time algorithm (SODA '93), the paper's §5 future-work target: run the
// CAPFOREST scan with the aggressive fixed contraction threshold
// τ = ⌈δ/(2+ε)⌉ instead of λ̂, which contracts far more edges per round at
// the price of only preserving cuts below τ. The minimum degree δ observed
// across rounds (improved by any scan cuts found on the way) is an upper
// bound within factor 2+ε of the minimum cut.
func Matula(g *graph.Graph, eps float64) (int64, []bool) {
	n := g.NumVertices()
	if n < 2 {
		return 0, nil
	}
	if side := g.DisconnectedWitness(); side != nil {
		return 0, side
	}
	if eps <= 0 {
		eps = 0.1
	}

	labels := graph.Identity(n)
	cur := g
	best := int64(math.MaxInt64)
	var bestSide []bool
	record := func(val int64, block int32) {
		best, bestSide = val, graph.LiftBlock(labels, block)
	}

	seed := uint64(1)
	for {
		mv, delta := cur.MinDegreeVertex()
		if delta < best {
			record(delta, mv)
		}
		if cur.NumVertices() <= 2 {
			break
		}
		tau := int64(math.Ceil(float64(delta) / (2 + eps)))
		if tau < 1 {
			tau = 1
		}
		u := dsu.New(cur.NumVertices())
		res := capforest.Run(cur, u, tau, capforest.Options{
			Queue:          pq.KindBStack,
			Bounded:        true,
			FixedThreshold: tau,
			Seed:           seed,
		})
		seed++
		if res.Improved && res.Bound < best {
			// A genuine cut below τ was observed during the scan.
			best = res.Bound
			bestSide = graph.LiftPrefix(labels, cur.NumVertices(), res.Order[:res.BestPrefixLen])
		}
		mapping, blocks := u.Mapping()
		if blocks == cur.NumVertices() {
			// The theory guarantees a contraction on connected graphs;
			// merge one maximum-adjacency pair as a safety net.
			phaseVal, last, pair := MAPhase(cur)
			if phaseVal < best {
				record(phaseVal, last)
			}
			m := graph.MergePairMapping(cur.NumVertices(), pair[0], pair[1])
			mapping, blocks = m.Block, m.NumBlocks
		}
		if blocks < 2 {
			break
		}
		cur = cur.Contract(graph.Mapping{Block: mapping, NumBlocks: blocks})
		for i := range labels {
			labels[i] = mapping[labels[i]]
		}
	}
	return best, bestSide
}
