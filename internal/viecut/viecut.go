package viecut

import (
	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/noi"
	"repro/internal/pq"
	"repro/internal/pr"
)

// Options configures VieCut.
type Options struct {
	// Workers is the parallelism of label propagation; ≤ 0 means
	// GOMAXPROCS.
	Workers int
	// LPIterations per coarsening level (the original uses 2).
	LPIterations int
	// BaseSize is the vertex count at which the multilevel scheme hands
	// over to the exact solver (default 128).
	BaseSize int
	// Seed drives label-propagation order and the exact base case.
	Seed uint64
}

func (o *Options) fill() {
	if o.LPIterations <= 0 {
		o.LPIterations = 2
	}
	if o.BaseSize < 4 {
		o.BaseSize = 128
	}
}

// Result is the outcome of a VieCut run: a genuine cut of g, in practice
// almost always a minimum cut, delivered much faster than any exact
// method. Value is an upper bound on λ(G) by construction.
type Result struct {
	Value  int64
	Side   []bool
	Levels int // coarsening levels performed
}

// Run executes VieCut on g.
func Run(g *graph.Graph, opts Options) Result {
	opts.fill()
	n := g.NumVertices()
	if n < 2 {
		return Result{}
	}
	if side := g.DisconnectedWitness(); side != nil {
		return Result{Value: 0, Side: side}
	}

	labels := graph.Identity(n)
	cur := g
	mv, delta := g.MinDegreeVertex()
	res := Result{Value: delta, Side: make([]bool, n)}
	res.Side[mv] = true

	contract := func(mapping []int32, blocks int) {
		cur = cur.ContractParallel(graph.Mapping{Block: mapping, NumBlocks: blocks}, opts.Workers)
		for i := range labels {
			labels[i] = mapping[labels[i]]
		}
		if cur.NumVertices() >= 2 {
			if v, d := cur.MinDegreeVertex(); d < res.Value {
				res.Value = d
				res.Side = graph.LiftBlock(labels, v)
			}
		}
	}

	seed := opts.Seed
	for cur.NumVertices() > opts.BaseSize {
		res.Levels++
		seed++
		before := cur.NumVertices()

		// 1. Label propagation clustering + cluster contraction.
		lp := LabelPropagation(cur, opts.LPIterations, opts.Workers, seed)
		m := graph.NewMappingFromLabels(lp)
		if m.NumBlocks > 1 && m.NumBlocks < before {
			contract(m.Block, m.NumBlocks)
		}
		if cur.NumVertices() <= 2 {
			break
		}

		// 2. Padberg–Rinaldi reductions with the current bound.
		u := dsu.New(cur.NumVertices())
		if pr.Apply(cur, res.Value, u) > 0 {
			mapping, blocks := u.Mapping()
			if blocks > 1 {
				contract(mapping, blocks)
			} else {
				break // everything certified ≥ λ̂
			}
		}
		if cur.NumVertices() >= before {
			break // no progress; hand over to the exact base case
		}
	}

	// Exact base case on the coarsest graph.
	if cur.NumVertices() >= 2 {
		base := noi.MinimumCut(cur, noi.Options{Queue: pq.KindBStack, Bounded: true, Seed: seed})
		if base.Value < res.Value && base.Side != nil {
			res.Value = base.Value
			res.Side = graph.LiftSide(labels, base.Side)
		}
	}
	return res
}
