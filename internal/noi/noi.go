// Package noi implements the sequential exact minimum-cut algorithm of
// Nagamochi, Ono and Ibaraki as engineered by the paper (§3.1): repeated
// CAPFOREST scans mark contractible edges, the graph is contracted, and
// the upper bound λ̂ shrinks through scan cuts (α), trivial degree cuts of
// contracted vertices, and optionally a precomputed inexact bound
// (VieCut). Priority-queue selection and bounding reproduce the paper's
// NOI-HNSS and NOIλ̂ variants.
package noi

import (
	"math"

	"repro/internal/baseline"
	"repro/internal/capforest"
	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/pq"
)

// Options configures MinimumCut.
type Options struct {
	// Queue selects the priority-queue implementation (§3.1.3). The
	// bucket queues require Bounded.
	Queue pq.Kind
	// Bounded caps priority keys at λ̂ (the paper's NOIλ̂ variants).
	Bounded bool
	// InitialBound, when positive, seeds λ̂ with a known upper bound —
	// the result of VieCut in the paper's NOI-...-VieCut variants. It
	// must be a genuine cut value of g (or at least an upper bound on
	// one); InitialSide should carry its witness.
	InitialBound int64
	// InitialSide is the witness cut for InitialBound (optional).
	InitialSide []bool
	// Seed drives start-vertex selection.
	Seed uint64
}

// Result is the outcome of an exact sequential minimum-cut computation.
type Result struct {
	// Value is the weight of the minimum cut. 0 for graphs with fewer
	// than two vertices and for disconnected graphs.
	Value int64
	// Side is a witness: Side[v] is true for vertices on one side of a
	// minimum cut. It is nil for graphs with fewer than two vertices, and
	// may be nil if InitialBound was supplied without InitialSide and no
	// better cut exists.
	Side []bool
	// Rounds is the number of CAPFOREST+contract iterations.
	Rounds int
	// Fallbacks counts rounds rescued by a Stoer–Wagner phase (a CAPFOREST
	// scan that marked no edge, which the theory precludes for connected
	// graphs but the implementation guards anyway).
	Fallbacks int
	// Stats aggregates priority-queue traffic across all rounds.
	Stats capforest.Stats
}

// MinimumCut computes the exact minimum cut of g.
func MinimumCut(g *graph.Graph, opts Options) Result {
	n := g.NumVertices()
	if n < 2 {
		return Result{}
	}
	if side := g.DisconnectedWitness(); side != nil {
		// Disconnected: the empty cut between components.
		return Result{Value: 0, Side: side}
	}

	res := Result{Value: math.MaxInt64}
	// Initial bound: the minimum-degree trivial cut, improved by the
	// caller-supplied bound if any.
	mv, delta := g.MinDegreeVertex()
	res.Value = delta
	res.Side = make([]bool, n)
	res.Side[mv] = true
	if opts.InitialBound > 0 && opts.InitialBound < res.Value {
		res.Value = opts.InitialBound
		if opts.InitialSide != nil {
			res.Side = append([]bool(nil), opts.InitialSide...)
		} else {
			res.Side = nil
		}
	}

	labels := graph.Identity(n) // original vertex -> current contracted vertex
	cur := g
	seed := opts.Seed

	for cur.NumVertices() > 2 {
		res.Rounds++
		seed++
		u := dsu.New(cur.NumVertices())
		cf := capforest.Run(cur, u, res.Value, capforest.Options{
			Queue:   opts.Queue,
			Bounded: opts.Bounded,
			Seed:    seed,
		})
		res.Stats.Add(cf.Stats)
		if cf.Improved {
			res.Value = cf.Bound
			res.Side = graph.LiftPrefix(labels, cur.NumVertices(), cf.Order[:cf.BestPrefixLen])
		}
		mapping, blocks := u.Mapping()
		if blocks == cur.NumVertices() {
			// No contractible edge found; fall back to one provably safe
			// Stoer–Wagner phase so the loop always shrinks the graph.
			res.Fallbacks++
			phaseVal, last, merged := baseline.MAPhase(cur)
			if phaseVal < res.Value {
				res.Value = phaseVal
				res.Side = graph.LiftBlock(labels, last)
			}
			m := graph.MergePairMapping(cur.NumVertices(), merged[0], merged[1])
			mapping, blocks = m.Block, m.NumBlocks
		}
		cur = cur.Contract(graph.Mapping{Block: mapping, NumBlocks: blocks})
		for i := range labels {
			labels[i] = mapping[labels[i]]
		}
		if cur.NumVertices() < 2 {
			// Everything was certified ≥ λ̂ and merged; the best cut seen
			// so far is the minimum cut.
			break
		}
		if v, d := cur.MinDegreeVertex(); d < res.Value {
			res.Value = d
			res.Side = graph.LiftBlock(labels, v)
		}
	}
	return res
}
