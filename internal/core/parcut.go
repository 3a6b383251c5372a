// Package core implements the paper's primary contribution: the
// shared-memory parallel exact minimum-cut algorithm (Algorithm 2).
//
// The solver starts from the minimum-degree bound λ̂ = δ and repeats
// rounds of parallel CAPFOREST (Algorithm 1) to mark contractible edges
// in a shared concurrent union-find, falling back to one sequential
// CAPFOREST scan when a round marks nothing (Algorithm 2 line 5),
// contracts the marked edges with the parallel contraction scheme of
// §3.2, and updates λ̂ from the trivial cuts of contracted vertices. The
// minimum over every cut encountered — scan cuts (α), trivial degree cuts
// and VieCut's cut — is the exact minimum cut.
//
// The paper runs the inexact VieCut algorithm on the whole input to get a
// tight λ̂ before round 1 (Algorithm 2 line 1, §3.1.1). Here it runs on
// the graph that round 1 leaves instead: round 1's α-cuts already lower
// λ̂, and on inputs with λ = δ VieCut only confirms δ, at a cost that
// scales with the input. On a 2¹⁶-vertex RHG with λ = δ = 7 (2 workers,
// 2-core host), round 1 leaves about 300 vertices, VieCut on them takes
// 0.3 ms instead of about 90 ms on the input, and the median solve fell
// from 133–170 ms to 56–68 ms. On inputs with λ < δ, VieCut on the
// contracted graph still lowers λ̂ for every later round. Round 1
// contracts only edges certified at or above the running λ̂, so every cut
// below it survives contraction and every cut of the contracted graph
// lifts to an input cut of the same value: the result stays exact.
//
// CAPFOREST at λ̂ = 2 certifies about one edge of a cycle per round, so a
// cycle left after contraction would cost one round per vertex. The
// solver therefore runs the series reduction (graph.ReduceSeries, whose
// SeriesMapping doc comment proves it exact) before round 1 and after
// every contraction: every maximal chain of degree-2 vertices folds into
// its lightest edge, and the sum of its two lightest edges is a candidate
// cut. The fold is contracted at once when it leaves at most two
// vertices, which solves a cycle or a path without a round; otherwise the
// next round contracts it together with the edges its scan certifies, so
// that each round contracts once, and round 1's VieCut runs on the graph
// before that fold. A ring of 512 16-cliques takes at most two rounds.
package core

import (
	"context"
	"math"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/capforest"
	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/viecut"
)

// Options configures the parallel solver.
type Options struct {
	// Workers is the number of parallel CAPFOREST/contraction workers;
	// ≤ 0 means GOMAXPROCS.
	Workers int
	// Queue selects the priority-queue implementation. The paper's
	// ParCutλ̂ variants use the bucket queues or the heap; BQueue scales
	// best on real-world graphs (§4.3).
	Queue pq.Kind
	// Bounded caps priority keys at λ̂. The paper's parallel algorithm
	// always bounds; leaving this false is supported for ablations.
	Bounded bool
	// DisableVieCut skips the VieCut bound that runs on the graph round 1
	// leaves (ablation; the paper's Algorithm 2 line 1 runs VieCut on the
	// whole input).
	DisableVieCut bool
	// Seed drives all randomized choices.
	Seed uint64
}

// Result is the outcome of the parallel exact minimum-cut computation.
type Result struct {
	// Value is the weight of the minimum cut (0 for graphs with fewer
	// than two vertices or disconnected graphs).
	Value int64
	// Side is a witness cut (nil for graphs with fewer than two
	// vertices).
	Side []bool
	// VieCutValue is the value of VieCut's cut of the graph round 1
	// left. It is 0 when VieCut is disabled, and when round 1 and the
	// series reduction left at most two vertices, so that VieCut did not
	// run.
	VieCutValue int64
	// Rounds is the number of parallel CAPFOREST + contraction rounds. It
	// is 0 when the series reduction alone solves the graph, as on a
	// cycle or a path.
	Rounds int
	// SeqFallbacks counts rounds where the parallel scan marked no edge
	// and the sequential CAPFOREST ran (Algorithm 2 line 5).
	SeqFallbacks int
	// Stats aggregates priority-queue traffic over all scans.
	Stats capforest.Stats
	// Timing breaks the run into its phases, the data behind the
	// scalability discussion of §4.3.
	Timing PhaseTiming
}

// PhaseTiming is the wall-clock breakdown of a parallel solver run.
type PhaseTiming struct {
	VieCut   time.Duration // VieCut bound on the graph round 1 left
	Scan     time.Duration // parallel + fallback CAPFOREST rounds
	Contract time.Duration // parallel contraction + relabeling, series reduction included
}

// ParallelMinimumCut computes the exact minimum cut of g with
// shared-memory parallelism (paper Algorithm 2). Cancellation is checked
// at every round boundary (one parallel CAPFOREST scan + contraction) and
// inside the scans themselves; on cancellation the partial Result is
// returned together with ctx.Err() and must not be treated as exact.
func ParallelMinimumCut(ctx context.Context, g *graph.Graph, opts Options) (Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if n < 2 {
		return Result{}, ctx.Err()
	}
	if side := g.DisconnectedWitness(); side != nil {
		return Result{Value: 0, Side: side}, ctx.Err()
	}

	res := Result{Value: math.MaxInt64}
	labels := graph.Identity(n)

	// Initial bound: trivial minimum-degree cut. VieCut, the paper's
	// Algorithm 2 line 1 bound, runs after round 1 (see the package doc).
	mv, delta := g.MinDegreeVertex()
	res.Value = delta
	res.Side = make([]bool, n)
	res.Side[mv] = true

	cur := g
	var fold graph.Mapping
	reduceStart := time.Now()
	cur, fold, res.Value, res.Side = cur.ReduceSeries(labels, workers, res.Value, res.Side)
	res.Timing.Contract += time.Since(reduceStart)
	seed := opts.Seed
	for cur.NumVertices() > 2 {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.Rounds++
		seed++
		nc := cur.NumVertices()

		// Clamp the scan parallelism to the shrinking graph: tiny regions
		// per worker mostly blacklist each other's frontiers, which marks
		// fewer edges per round and inflates the round count.
		roundWorkers := workers
		if cap := nc / 1024; cap < roundWorkers {
			roundWorkers = max(1, cap)
		}

		// Algorithm 2 line 3: parallel CAPFOREST.
		scanStart := time.Now()
		u := dsu.NewConcurrent(nc)
		par := capforest.RunParallel(cur, u, res.Value, roundWorkers, capforest.Options{
			Queue:   opts.Queue,
			Bounded: opts.Bounded,
			Seed:    seed,
			Ctx:     ctx,
		})
		res.Stats.Add(par.Stats)
		if par.Bound < res.Value {
			res.Value = par.Bound
			res.Side = bestWorkerWitness(par, labels, nc)
		}
		fold.UnionBlocks(u.Union)
		mapping, blocks := u.Mapping()

		if blocks == nc {
			// Algorithm 2 lines 4-6: no edge marked and no chain folded;
			// run the sequential scan, which is guaranteed to find one on
			// connected graphs.
			res.SeqFallbacks++
			d := dsu.New(nc)
			cf := capforest.Run(cur, d, res.Value, capforest.Options{
				Queue:   opts.Queue,
				Bounded: opts.Bounded,
				Seed:    seed,
				Ctx:     ctx,
			})
			res.Stats.Add(cf.Stats)
			if cf.Improved && cf.Bound < res.Value {
				res.Value = cf.Bound
				res.Side = graph.LiftPrefix(labels, nc, cf.Order[:cf.BestPrefixLen])
			}
			mapping, blocks = d.Mapping()
			if blocks == nc {
				// Final safety net: one Stoer–Wagner phase.
				phaseVal, last, pair := baseline.MAPhase(cur)
				if phaseVal < res.Value {
					res.Value = phaseVal
					res.Side = graph.LiftBlock(labels, last)
				}
				m := graph.MergePairMapping(nc, pair[0], pair[1])
				mapping, blocks = m.Block, m.NumBlocks
			}
		}

		res.Timing.Scan += time.Since(scanStart)

		// Algorithm 2 line 7: parallel graph contraction.
		contractStart := time.Now()
		cur = cur.ContractParallel(graph.Mapping{Block: mapping, NumBlocks: blocks}, workers)
		for i := range labels {
			labels[i] = mapping[labels[i]]
		}
		res.Timing.Contract += time.Since(contractStart)
		if cur.NumVertices() < 2 {
			break
		}
		if v, d := cur.MinDegreeVertex(); d < res.Value {
			res.Value = d
			res.Side = graph.LiftBlock(labels, v)
		}

		contractStart = time.Now()
		cur, fold, res.Value, res.Side = cur.ReduceSeries(labels, workers, res.Value, res.Side)
		res.Timing.Contract += time.Since(contractStart)

		// λ̂ ← min(λ̂, VieCut(G/round 1)): a cut of the contracted graph
		// lifts to an input cut of the same value.
		if res.Rounds == 1 && !opts.DisableVieCut && ctx.Err() == nil && cur.NumVertices() > 2 {
			start := time.Now()
			vc := viecut.Run(cur, viecut.Options{Workers: workers, Seed: opts.Seed})
			res.Timing.VieCut = time.Since(start)
			res.VieCutValue = vc.Value
			if vc.Value < res.Value {
				res.Value = vc.Value
				res.Side = graph.LiftSide(labels, vc.Side)
			}
		}
	}
	return res, ctx.Err()
}

// bestWorkerWitness extracts the witness of the best α-cut found by the
// parallel scan: the scan-order prefix of the worker that achieved the
// bound.
func bestWorkerWitness(par capforest.ParallelResult, labels []int32, nc int) []bool {
	bestW := -1
	for i, wr := range par.Workers {
		if wr.BestPrefixLen > 0 && wr.BestAlpha == par.Bound {
			bestW = i
			break
		}
	}
	if bestW < 0 {
		// The bound came from elsewhere (cannot happen when par.Bound
		// improved, but stay defensive).
		return nil
	}
	wr := par.Workers[bestW]
	return graph.LiftPrefix(labels, nc, wr.Order[:wr.BestPrefixLen])
}
