package core

import (
	"context"
	"runtime"

	"repro/internal/capforest"
	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/pq"
)

// Kernel is a contracted graph that preserves every minimum cut of the
// original, together with the vertex mapping. It is the plumbing between
// the value solver and the all-minimum-cuts subsystem (internal/cactus):
// the solver proper contracts any edge certified ≥ λ̂, which preserves the
// minimum value but may destroy witnesses, while the kernelization below
// only contracts edges certified strictly above λ, so the minimum cuts of
// the kernel are in exact bijection with the minimum cuts of the input.
type Kernel struct {
	// Graph is the contracted graph.
	Graph *graph.Graph
	// Labels maps every original vertex to its kernel vertex.
	Labels []int32
	// Lambda is the minimum-cut value both graphs share.
	Lambda int64
	// Rounds is the number of CAPFOREST + contraction rounds run.
	Rounds int
}

// KernelizeAllCuts contracts g while preserving every minimum cut. lambda
// must be the exact minimum-cut value of g (> 0, so g must be connected).
// Each round runs CAPFOREST with the fixed threshold λ+1 — certifying
// connectivity λ(x,y) ≥ λ+1 for every marked edge, hence that no minimum
// cut separates x and y — unions the certified pairs in a (concurrent)
// disjoint-set structure, and contracts with the §3.2 parallel scatter
// pipeline. Rounds repeat until a fixpoint. workers ≤ 0 means GOMAXPROCS.
// Cancellation is checked at round boundaries; the partial kernel is
// returned with ctx.Err() and is still all-cuts-preserving (every
// completed contraction was individually certified), just less contracted.
func KernelizeAllCuts(ctx context.Context, g *graph.Graph, lambda int64, workers int, seed uint64) (Kernel, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	k := Kernel{Graph: g, Labels: graph.Identity(n), Lambda: lambda}
	if n < 3 || lambda <= 0 {
		return k, ctx.Err()
	}
	var err error
	k.Graph, k.Rounds, err = contractCertified(ctx, g, lambda+1, 2, workers, seed, k.Labels, nil)
	return k, err
}

// CertifyConnectivity attempts to certify that the local edge
// connectivity λ(g, u, v) is at least threshold, without computing a max
// flow: rounds of fixed-threshold CAPFOREST union pairs whose
// connectivity is certified ≥ threshold (Nagamochi–Ono–Ibaraki Lemma 3.1;
// certificates compose transitively through the union-find), certified
// blocks are contracted, and the rounds repeat until u and v land in the
// same block (certified — return true) or a fixpoint is reached
// (inconclusive — return false; the connectivity may still be ≥
// threshold, CAPFOREST certificates are one-sided). This is the
// invalidation oracle behind Snapshot.Apply's deletion rule: deleting an
// edge {u,v} of weight w from a graph with minimum cut λ provably
// preserves the entire minimum-cut family when λ(u,v) ≥ λ+w+1, because
// every cut separating u and v then stays strictly above λ after losing
// w. Apply runs it only when u's and v's adjacency lists alone do not
// prove that bound.
//
// workers ≤ 0 means GOMAXPROCS; only graphs large enough to amortize the
// parallel scan use more than one. Cancellation is checked per round and
// reported as (false, ctx.Err()).
func CertifyConnectivity(ctx context.Context, g *graph.Graph, u, v int32, threshold int64, workers int, seed uint64) (bool, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if u == v {
		return true, ctx.Err()
	}
	if n < 2 || threshold <= 0 {
		return threshold <= 0, ctx.Err()
	}
	pair := []int32{u, v}
	_, _, err := contractCertified(ctx, g, threshold, 1, workers, seed, pair, func(p []int32) bool { return p[0] == p[1] })
	if pair[0] == pair[1] {
		return true, nil
	}
	return false, err
}

// contractCertified contracts g in rounds of fixed-threshold CAPFOREST
// (certifyRound) and returns the contracted graph, the number of rounds
// and ctx.Err(). Each round contracts every pair it certifies and maps
// labels, vertices of g on entry, to their blocks. Rounds stop at a
// fixpoint, at floor vertices or fewer, or as soon as joined, when
// non-nil, reports true of the mapped labels; that round's contraction
// is then skipped, as the caller reads only labels. Cancellation is
// checked before each round.
func contractCertified(ctx context.Context, g *graph.Graph, threshold int64, floor, workers int, seed uint64, labels []int32, joined func([]int32) bool) (*graph.Graph, int, error) {
	opts := capforest.Options{Queue: pq.KindBQueue, Bounded: true, FixedThreshold: threshold, Ctx: ctx}
	cur, rounds := g, 0
	for cur.NumVertices() > floor {
		if err := ctx.Err(); err != nil {
			return cur, rounds, err
		}
		rounds++
		seed++
		opts.Seed = seed
		mapping, blocks := certifyRound(cur, workers, opts)
		if blocks == cur.NumVertices() {
			break // fixpoint: nothing certified
		}
		for i, l := range labels {
			labels[i] = mapping[l]
		}
		if joined != nil && joined(labels) {
			break
		}
		cur = cur.ContractParallel(graph.Mapping{Block: mapping, NumBlocks: blocks}, workers)
	}
	return cur, rounds, ctx.Err()
}

// certifyRound runs one CAPFOREST scan at the fixed threshold
// opts.FixedThreshold — in parallel when the graph is large enough to
// amortize it — and returns the mapping that contracts every certified
// pair.
func certifyRound(g *graph.Graph, workers int, opts capforest.Options) ([]int32, int) {
	nc := g.NumVertices()
	if workers > 1 && nc >= 1<<10 {
		u := dsu.NewConcurrent(nc)
		capforest.RunParallel(g, u, opts.FixedThreshold, workers, opts)
		return u.Mapping()
	}
	d := dsu.New(nc)
	capforest.Run(g, d, opts.FixedThreshold, opts)
	return d.Mapping()
}
