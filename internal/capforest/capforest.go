// Package capforest implements the contractible-edge detection routine at
// the core of the Nagamochi–Ono–Ibaraki minimum-cut algorithm and of this
// paper: CAPFOREST (paper Algorithm 3), its bounded-priority-queue variant
// (Lemma 3.1), and the shared-memory parallel variant (Algorithm 1).
//
// A run scans vertices in maximum-adjacency order, maintaining for every
// unscanned vertex y the total weight r(y) of edges to already scanned
// vertices. When scanning edge e=(x,y) pushes r(y) from below the current
// upper bound λ̂ to ≥ λ̂, the edge connectivity λ(G,x,y) is certified to be
// at least λ̂, so x and y are unioned in a disjoint-set structure for later
// contraction. The value α, the weight of the cut between scanned and
// unscanned vertices, provides new upper bounds along the way.
package capforest

import (
	"context"

	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/pq"
)

// Options configures a CAPFOREST run.
type Options struct {
	// Queue selects the priority queue implementation (§3.1.3).
	Queue pq.Kind
	// Bounded caps priority keys at the current bound λ̂ (§3.1.2,
	// Lemma 3.1), saving queue updates for vertices whose r exceeds λ̂.
	// Bucket queues require Bounded.
	Bounded bool
	// FixedThreshold, when positive, contracts edges crossing this fixed
	// value instead of the dynamic bound λ̂. Matula's (2+ε)-approximation
	// uses this with threshold δ/(2+ε); the exact algorithms leave it 0.
	FixedThreshold int64
	// Seed selects start vertices.
	Seed uint64
	// Ctx, when non-nil, is polled every ctxCheckMask+1 pops; a cancelled
	// context aborts the scan early. An aborted scan's partial result is
	// still sound — every union already recorded is an individually
	// certified contraction and Bound is a valid upper bound — so callers
	// that observe ctx.Err() after the scan may either discard or keep the
	// partial work.
	Ctx context.Context
}

// ctxCheckMask throttles context polling to every 4096 queue pops: a
// single atomic load per batch, invisible next to the scan work itself.
const ctxCheckMask = 1<<12 - 1

// cancelled reports whether ctx is non-nil and already cancelled.
func cancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// Stats counts priority-queue traffic, the quantity the paper's §4.2
// ablation discusses (bounded queues avoid updates beyond λ̂).
type Stats struct {
	Pushes      int64 // initial insertions
	Updates     int64 // IncreaseKey calls that changed a key
	CappedSkips int64 // updates avoided because the key was capped at λ̂
	Pops        int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Pushes += other.Pushes
	s.Updates += other.Updates
	s.CappedSkips += other.CappedSkips
	s.Pops += other.Pops
}

// Result reports the outcome of a sequential run.
type Result struct {
	// Unions is the number of distinct contractible-edge merges performed
	// on the disjoint-set structure.
	Unions int
	// Bound is the (possibly improved) upper bound λ̂ after the scan.
	Bound int64
	// Improved reports whether Bound is lower than the bound passed in.
	Improved bool
	// Order is the scan order; Order[:BestPrefixLen] is the side of the
	// cut realizing Bound when Improved (the α-cut witness).
	Order         []int32
	BestPrefixLen int
	Stats         Stats
}

// Run performs one sequential CAPFOREST scan of g, marking contractible
// edges in u. bound is the current upper bound λ̂ (> 0). The scan grows
// from one start vertex and covers every vertex of a connected graph. On
// a disconnected one the frontier empties once the scanned set is a
// union of whole components; α is then 0, below every bound, so the scan
// stops there with Bound 0 and the scanned set as its witness.
func Run(g *graph.Graph, u *dsu.DSU, bound int64, opts Options) Result {
	n := g.NumVertices()
	res := Result{Bound: bound}
	if n < 2 || bound <= 0 {
		return res
	}
	dynamic := opts.FixedThreshold <= 0
	threshold := opts.FixedThreshold
	maxKey := bound
	if !dynamic && threshold > maxKey {
		maxKey = threshold
	}
	cs := g.CSR()
	r := make([]int64, n)
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	q := pq.New(opts.Queue, n, maxKey)

	// Keys may be capped no lower than the contraction threshold: the
	// Lemma 3.1 certificate (a crossing of the threshold implies
	// connectivity at least the threshold) relies on popped vertices
	// being maximal or at least at the cap. In dynamic mode the cap is
	// the current bound (threshold and cap coincide); in fixed-threshold
	// mode it stays at the threshold even when α-cuts lower the bound.
	capKey := func(key int64) int64 {
		limit := res.Bound
		if !dynamic && limit < threshold {
			limit = threshold
		}
		if key > limit {
			return limit
		}
		return key
	}

	rng := splitmix(opts.Seed)
	var alpha int64
	start := int32(rng() % uint64(n))
	q.Push(start, 0)
	for !q.Empty() {
		if res.Stats.Pops&ctxCheckMask == 0 && cancelled(opts.Ctx) {
			res.Order = order
			return res
		}
		x, _ := q.PopMax()
		res.Stats.Pops++
		visited[x] = true
		order = append(order, x)
		alpha += cs.Deg[x] - 2*r[x]
		if len(order) < n && alpha < res.Bound {
			res.Bound = alpha
			res.Improved = true
			res.BestPrefixLen = len(order)
			if res.Bound <= 0 {
				// A zero cut: the scanned set is disconnected from the
				// rest. Nothing below can be contracted; stop early.
				res.Order = order
				return res
			}
		}
		if dynamic {
			threshold = res.Bound
		}
		for i, end := cs.XAdj[x], cs.XAdj[x+1]; i < end; i++ {
			y := cs.Adj[i]
			if visited[y] {
				continue
			}
			w := cs.Wgt[i]
			ry := r[y]
			if ry < threshold && threshold <= ry+w {
				if u.Union(x, y) {
					res.Unions++
				}
			}
			r[y] = ry + w
			key := r[y]
			if opts.Bounded {
				key = capKey(key)
			}
			if !q.Contains(y) {
				q.Push(y, key)
				res.Stats.Pushes++
			} else if key > q.Key(y) {
				q.IncreaseKey(y, key)
				res.Stats.Updates++
			} else {
				res.Stats.CappedSkips++
			}
		}
	}
	res.Order = order
	return res
}

// splitmix returns a tiny seeded generator for start-vertex selection.
func splitmix(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
