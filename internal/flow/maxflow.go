package flow

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
)

// MinSTCut computes a minimum s-t cut of g with Dinic's algorithm and
// returns its value and the s-side witness. It returns an error when s
// or t is not a vertex of g or when s == t. ctx is checked at every BFS
// phase boundary; cancellation returns ctx.Err().
func MinSTCut(ctx context.Context, g *graph.Graph, s, t int32) (int64, []bool, error) {
	nw, v, err := maxFlow(ctx, g, s, t)
	if err != nil {
		return 0, nil, err
	}
	side, _ := nw.reach(nil, nil, []int32{s}, 0)
	return v, side, nil
}

// maxFlow builds the residual network of g and runs Dinic from s to t to
// completion. The network is left holding a genuine maximum flow (not a
// preflow), from which MinSTCut reads its witness and STEnum the
// Picard–Queyranne correspondence.
func maxFlow(ctx context.Context, g *graph.Graph, s, t int32) (*network, int64, error) {
	n := int32(g.NumVertices())
	if s < 0 || s >= n || t < 0 || t >= n {
		return nil, 0, fmt.Errorf("flow: terminals s=%d t=%d out of range [0,%d)", s, t, n)
	}
	if s == t {
		return nil, 0, fmt.Errorf("flow: s and t are the same vertex %d", s)
	}
	nw := newNetwork(g)
	v := dinicAugment(ctx, nw, []int32{s}, t, math.MaxInt64,
		make([]int32, n), make([]int32, n), make([]int32, 0, n))
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return nw, v, nil
}

// dinicAugment augments nw in place toward a maximum flow from the
// source set to t and returns the value pushed, stopping early once it
// exceeds cap (pass math.MaxInt64 for an unconditional max flow). The
// scratch slices level and it must have length nw.n; queue only needs
// its backing capacity. Shared by the single-pair solver (maxFlow) and
// the KT recursion's shared-residual stepping (Progressive.MaxFlowTo).
//
// A non-nil ctx is checked at every BFS phase boundary (each phase is one
// blocking-flow computation); cancellation stops augmenting and returns
// the value pushed so far. The partial flow left behind is feasible, so
// an aborted call never corrupts the shared residual state — the caller
// distinguishes "done" from "aborted" by checking ctx.Err() itself.
func dinicAugment(ctx context.Context, nw *network, sources []int32, t int32, cap int64, level, it, queue []int32) int64 {
	var total int64

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		queue = queue[:0]
		for _, s := range sources {
			level[s] = 0
			queue = append(queue, s)
		}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, a := range nw.arcs(v) {
				w := nw.head[a]
				if level[w] < 0 && nw.res[a] > 0 {
					level[w] = level[v] + 1
					queue = append(queue, w)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(v int32, limit int64) int64
	dfs = func(v int32, limit int64) int64 {
		if v == t {
			return limit
		}
		arcs := nw.arcs(v)
		for ; it[v] < int32(len(arcs)); it[v]++ {
			a := arcs[it[v]]
			w := nw.head[a]
			if nw.res[a] <= 0 || level[w] != level[v]+1 {
				continue
			}
			f := limit
			if nw.res[a] < f {
				f = nw.res[a]
			}
			if pushed := dfs(w, f); pushed > 0 {
				nw.push(a, pushed)
				return pushed
			}
		}
		level[v] = -1 // dead end
		return 0
	}

	for total <= cap && !(ctx != nil && ctx.Err() != nil) && bfs() {
		for i := range it {
			it[i] = 0
		}
		for _, s := range sources {
			for total <= cap {
				f := dfs(s, math.MaxInt64)
				if f == 0 {
					break
				}
				total += f
			}
			if total > cap {
				break
			}
		}
	}
	return total
}
