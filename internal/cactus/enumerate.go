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
// memory (each cut is materialized).
const DefaultMaxCuts = 1 << 20

// ErrTooManyCuts is wrapped by AllMinCuts when the number of minimum cuts
// exceeds Options.MaxCuts. It is the only benign error: everything else
// signals an internal inconsistency.
var ErrTooManyCuts = errors.New("too many minimum cuts")

// Options configures AllMinCuts.
type Options struct {
	// Workers bounds the parallelism of the kernelization and of the cut
	// enumeration (≤ 0 means GOMAXPROCS): the KT enumeration shards the
	// adjacency-order steps into contiguous segments, one
	// flow.Progressive per worker. Results are identical for every
	// worker count.
	Workers int
	// Seed drives the randomized choices of the λ solver and CAPFOREST.
	Seed uint64
	// Lambda, when positive, is trusted as the exact minimum-cut value and
	// the λ computation is skipped. Passing a wrong value yields wrong
	// results (a too-small value finds nothing; a too-large one is not a
	// minimum-cut family and fails cactus construction).
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
	// Assemble covers everything after enumeration: the canonical sort,
	// cactus construction, the lift to original vertices, and cut
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

// enumerator lists every minimum cut of the kernel kg as canonical
// bitsets (the side not containing k0), failing with ErrTooManyCuts past
// maxCuts. ktEnumerate is the only one outside tests.
type enumerator func(ctx context.Context, kg *graph.Graph, k0 int32, lambda int64, maxCuts, workers int) ([]bitset, error)

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
	nk := kg.NumVertices()
	res.KernelVertices = nk
	k0 := labels[0]

	// Enumerate the kernel's minimum cuts as canonical bitsets (the side
	// not containing k0).
	start := time.Now()
	kcuts, err := enumerate(ctx, kg, k0, lambda, maxCuts, workers)
	if err != nil {
		return nil, err
	}
	res.Phases.Enumerate = time.Since(start)
	res.Count = len(kcuts)

	// Canonical kernel order (side size, then lexicographic) so the
	// cactus is deterministic and identical for every enumerator and
	// materialization setting. The size key is a counting sort (sizes
	// are bounded by nk); only the per-size buckets need comparison
	// sorting, which keeps every comparison single-key and lets the
	// buckets sort across the workers.
	start = time.Now()
	sizes := make([]int, len(kcuts))
	maxSize := 0
	for i, m := range kcuts {
		sizes[i] = m.count()
		if sizes[i] > maxSize {
			maxSize = sizes[i]
		}
	}
	offs := make([]int32, maxSize+2)
	for _, s := range sizes {
		offs[s+1]++
	}
	for s := 1; s < len(offs); s++ {
		offs[s] += offs[s-1]
	}
	bounds := append([]int32(nil), offs...) // bucket s occupies perm[bounds[s]:bounds[s+1]]
	perm := make([]int32, len(kcuts))
	for i, s := range sizes {
		perm[offs[s]] = int32(i)
		offs[s]++
	}
	parallelBlocks(workers, maxSize+1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			b := perm[bounds[s]:bounds[s+1]]
			if len(b) < 2 {
				continue
			}
			sort.Slice(b, func(x, y int) bool {
				i, j := b[x], b[y]
				for w := len(kcuts[i]) - 1; w >= 0; w-- {
					if kcuts[i][w] != kcuts[j][w] {
						return kcuts[i][w] < kcuts[j][w]
					}
				}
				return false
			})
		}
	})
	sorted := make([]bitset, len(kcuts))
	for a, i := range perm {
		sorted[a] = kcuts[i]
	}
	kcuts = sorted

	// Cactus over the kernel, lifted to original vertices. The assembly
	// itself is worker-parallel (sharded bit-matrix transposes,
	// per-crossing-class fan-out) with output identical for every
	// worker count.
	kc, err := buildCactus(nk, k0, kcuts, lambda, workers)
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
		res.Cuts = materialize(kcuts, labels, n)
	}
	res.Phases.Assemble = time.Since(start)
	return res, nil
}

// materialize expands kernel cut bitsets to boolean sides over original
// vertices, sorted deterministically (by side size, then
// lexicographically) — canonical regardless of enumerator and of how far
// the kernelization contracted.
func materialize(kcuts []bitset, labels []int32, n int) [][]bool {
	cuts := make([][]bool, len(kcuts))
	sizes := make([]int, len(kcuts))
	for i, m := range kcuts {
		side := make([]bool, n)
		size := 0
		for v := 0; v < n; v++ {
			side[v] = m.get(int(labels[v]))
			if side[v] {
				size++
			}
		}
		cuts[i] = side
		sizes[i] = size
	}
	order := make([]int, len(kcuts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if sizes[i] != sizes[j] {
			return sizes[i] < sizes[j]
		}
		for v := 0; v < n; v++ {
			if cuts[i][v] != cuts[j][v] {
				return cuts[j][v]
			}
		}
		return false
	})
	sorted := make([][]bool, len(order))
	for a, i := range order {
		sorted[a] = cuts[i]
	}
	return sorted
}
