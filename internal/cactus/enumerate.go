package cactus

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pq"
)

// DefaultMaxCuts caps the number of enumerated minimum cuts; the theory
// bounds them by n(n-1)/2, so the cap only guards degenerate inputs and
// time (the cactus is built without materializing any cut, but
// EachMinCut and Result.Cuts visit each one).
const DefaultMaxCuts = 1 << 20

// ErrTooManyCuts is wrapped by AllMinCuts when the number of minimum cuts
// exceeds Options.MaxCuts. It is the only benign error: everything else
// signals an internal inconsistency.
var ErrTooManyCuts = errors.New("too many minimum cuts")

// Options configures AllMinCuts.
type Options struct {
	// Workers bounds the parallelism of the kernelization and of the cut
	// enumeration (≤ 0 means GOMAXPROCS): the KT workers claim the
	// adjacency-order steps one at a time from a shared counter, one
	// flow.Progressive per worker. Results are identical for every
	// worker count.
	Workers int
	// Seed drives the randomized choices of the λ solver and CAPFOREST.
	Seed uint64
	// Lambda, when positive, is trusted as the exact minimum-cut value and
	// the λ computation is skipped. Passing a wrong value yields wrong
	// results (a too-small value finds nothing; a too-large one fails the
	// KT enumeration, whose steps then find cuts below it).
	Lambda int64
	// MaxCuts caps the number of cuts (≤ 0 means DefaultMaxCuts).
	// Exceeding it aborts with an error.
	MaxCuts int
	// DisableKernel skips the all-cuts-preserving kernelization (ablation;
	// the enumeration then runs on the full graph).
	DisableKernel bool
	// NoMaterialize skips building Result.Cuts, the per-cut boolean sides
	// over original vertices — Θ(C·n) bytes for C cuts. The cactus is
	// still built; stream the cuts from it with Cactus.EachMinCut.
	NoMaterialize bool
}

// PhaseTimings is the wall-clock breakdown of one AllMinCuts call, for
// benchmarking and capacity planning. Zero fields mean the phase did
// not run (e.g. Lambda when Options.Lambda was supplied, Kernelize when
// Options.DisableKernel is set).
type PhaseTimings struct {
	// Lambda is the λ solve (core.ParallelMinimumCut).
	Lambda time.Duration
	// Kernelize is the all-cuts-preserving contraction.
	Kernelize time.Duration
	// Enumerate is the sharded KT cut enumeration.
	Enumerate time.Duration
	// Assemble covers everything after enumeration: merging the KT
	// chains into the cactus, the lift to original vertices, and cut
	// materialization.
	Assemble time.Duration
}

// Result is the outcome of an all-minimum-cuts computation.
type Result struct {
	// Lambda is the minimum-cut value (0 for disconnected graphs and
	// graphs with fewer than two vertices).
	Lambda int64
	// Connected reports whether g was connected. When false, every
	// bipartition grouping whole components is a minimum cut of weight 0 —
	// exponentially many — so Count stays 0 and Cuts and Cactus are not
	// materialized; Components carries the component count.
	Connected bool
	// Components is the number of connected components.
	Components int
	// Count is the number of distinct minimum cuts (0 for disconnected
	// graphs and graphs with fewer than two vertices).
	Count int
	// Cuts lists every minimum cut in canonical form (vertex 0 on the
	// false side), sorted by side size then lexicographically. Nil for
	// disconnected graphs, graphs with fewer than two vertices, and when
	// Options.NoMaterialize is set (stream from Cactus instead).
	Cuts [][]bool
	// Cactus is the cactus representation of the minimum cuts (nil for
	// disconnected graphs).
	Cactus *Cactus
	// KernelVertices is the vertex count of the contracted kernel the
	// enumeration ran on (equal to n when kernelization is disabled).
	KernelVertices int
	// Phases is the wall-clock breakdown by pipeline phase.
	Phases PhaseTimings
}

// NumCuts returns the number of distinct minimum cuts (0 means none were
// found: fewer than two vertices, or a disconnected graph).
func (r *Result) NumCuts() int { return r.Count }

// AllMinCuts computes every global minimum cut of g and the cactus
// representation. See the package comment for the pipeline. Cancellation
// is checked at every phase boundary — λ solver rounds, kernelization
// rounds, each KT step, and cactus assembly — and reported as ctx.Err()
// wrapped in the returned error.
func AllMinCuts(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	return allMinCuts(ctx, g, opts, ktEnumerate)
}

// enumerator lists every minimum cut of the kernel kg, failing with
// ErrTooManyCuts past maxCuts. ktEnumerate is the only one outside tests.
type enumerator func(ctx context.Context, kg *graph.Graph, k0 int32, lambda int64, maxCuts, workers int) (cutFamily, error)

// cutFamily is an enumerated minimum-cut family of a kernel. The KT
// chains are the only one outside tests; the tests' reference is a cut
// list assembled by the bit-matrix builder.
type cutFamily interface {
	// size returns the number of cuts.
	size() int
	// cactus assembles the family's cactus over the kernel vertices.
	cactus(lambda int64) (*Cactus, error)
}

// allMinCuts is AllMinCuts with the kernel enumeration as a parameter:
// the seam through which tests run kernelization and assembly on the
// quadratic reference enumeration.
func allMinCuts(ctx context.Context, g *graph.Graph, opts Options, enumerate enumerator) (*Result, error) {
	n := g.NumVertices()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	maxCuts := opts.MaxCuts
	if maxCuts <= 0 {
		maxCuts = DefaultMaxCuts
	}

	res := &Result{Connected: true, Components: 1}
	if n < 2 {
		res.Components = n
		res.Cactus = &Cactus{NumNodes: 1, VertexNode: make([]int32, n)}
		if n == 0 {
			res.Components = 0
			res.Cactus.NumNodes = 0
			res.Cactus.VertexNode = nil
		}
		return res, nil
	}
	if _, k := g.Components(); k > 1 {
		res.Connected = false
		res.Components = k
		return res, nil
	}

	// λ from the existing parallel exact solver, unless supplied.
	lambda := opts.Lambda
	if lambda <= 0 {
		start := time.Now()
		solve, err := core.ParallelMinimumCut(ctx, g, core.Options{
			Workers: opts.Workers, Queue: pq.KindBQueue, Bounded: true, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("cactus: λ solve interrupted: %w", err)
		}
		lambda = solve.Value
		res.Phases.Lambda = time.Since(start)
	}
	res.Lambda = lambda

	// Kernelize: contract everything no minimum cut separates.
	kg, labels := g, graph.Identity(n)
	if !opts.DisableKernel {
		start := time.Now()
		k, err := core.KernelizeAllCuts(ctx, g, lambda, opts.Workers, seed)
		if err != nil {
			return nil, fmt.Errorf("cactus: kernelization interrupted: %w", err)
		}
		kg, labels = k.Graph, k.Labels
		res.Phases.Kernelize = time.Since(start)
	}
	res.KernelVertices = kg.NumVertices()

	start := time.Now()
	family, err := enumerate(ctx, kg, labels[0], lambda, maxCuts, workers)
	if err != nil {
		return nil, err
	}
	res.Phases.Enumerate = time.Since(start)
	res.Count = family.size()

	// Cactus over the kernel, lifted to original vertices.
	start = time.Now()
	kc, err := family.cactus(lambda)
	if err != nil {
		return nil, err
	}
	vertexNode := make([]int32, n)
	for v := 0; v < n; v++ {
		vertexNode[v] = kc.VertexNode[labels[v]]
	}
	kc.VertexNode = vertexNode
	res.Cactus = kc

	if !opts.NoMaterialize {
		res.Cuts = materialize(kc, res.Count)
	}
	res.Phases.Assemble = time.Since(start)
	return res, nil
}

// materialize lists the count cuts the cactus encodes as boolean sides
// over original vertices, sorted deterministically (by side size, then
// lexicographically with false before true) — canonical regardless of
// enumerator, cactus numbering, and how far the kernelization
// contracted.
func materialize(c *Cactus, count int) [][]bool {
	type cut struct {
		side []bool
		size int
	}
	cuts := make([]cut, 0, count)
	c.EachMinCut(func(side []bool) bool {
		k := cut{side: append([]bool(nil), side...)}
		for _, in := range side {
			if in {
				k.size++
			}
		}
		cuts = append(cuts, k)
		return true
	})
	sort.Slice(cuts, func(a, b int) bool {
		x, y := cuts[a], cuts[b]
		if x.size != y.size {
			return x.size < y.size
		}
		for v := range x.side {
			if x.side[v] != y.side[v] {
				return y.side[v]
			}
		}
		return false
	})
	sides := make([][]bool, len(cuts))
	for i, k := range cuts {
		sides[i] = k.side
	}
	return sides
}
