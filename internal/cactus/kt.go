package cactus

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/graph"
)

// ktEnumerate lists every global minimum cut of the kernel graph with the
// Karzanov–Timofeev recursion: kernel vertices are visited in an
// adjacency (BFS) order v_0 = k0, v_1, ..., v_{nk-1}, so that each v_i is
// adjacent to the contracted prefix {v_0..v_{i-1}}; a residual network
// (flow.Progressive) carries the flow state across steps. Step i augments
// the flow from the prefix to v_i, aborting as soon as the value exceeds
// λ; when the value is exactly λ the minimum prefix/v_i cuts form a
// nested chain (crossing global minimum cuts would put the prefix and
// v_i in non-adjacent parts of a circular partition, contradicting the
// adjacency order) which is read off the residual strongly-connected
// components in one sweep. Within a chain each cut extends its
// predecessor by one residual component, so the cut bitsets are derived
// incrementally (clone + set the delta) instead of rescanned.
//
// Every global minimum cut is collected exactly once: a cut whose far
// side's earliest-ordered vertex is v_i appears in step i and in no
// other, so no deduplication is needed — the per-vertex Picard–Queyranne
// reference the tests compare against (enumerateQuadratic) discovers
// each cut once per far-side vertex and dedups through a mutex-guarded
// hash set.
//
// The steps shard across workers with SEGMENT-LEVEL WORK STEALING: each
// step's cut chain depends only on the graph and the (prefix, v_i) pair
// — not on the flow state some earlier step left behind — so any
// contiguous step range [lo, hi) can run on its own Progressive with
// order[1:lo] pre-absorbed as the contracted source prefix. The range
// starts as one even segment per worker; an idle worker then steals the
// upper half of the largest remaining segment (ktScheduler), so one
// skewed segment — star-of-cycles kernels put nearly all chain work in
// a few steps — no longer serializes the tail the way the former static
// chunking did. Segment results are keyed by their start step and
// concatenated in step order, and each step's chain is independent of
// how the segments were carved, so the cut list is identical to the
// sequential one for every worker count and every steal schedule.
//
// Cost: one network build and nk-1 λ-capped augmentation rounds divided
// across the workers (each round O(λ̄) augmenting paths of O(m) plus an
// O(m) SCC sweep, totalling the O(n·m)-flavored bound of Karzanov and
// Timofeev), O(C·nk/64) to materialize the C ≤ n(n-1)/2 sides, and one
// extra network build (or Progressive rewind) plus one from-scratch
// λ-capped flow per stolen segment.
func ktEnumerate(ctx context.Context, kg *graph.Graph, k0 int32, lambda int64, maxCuts, workers int) ([]bitset, error) {
	nk := kg.NumVertices()
	order := adjacencyOrder(kg, k0)
	if len(order) != nk {
		return nil, fmt.Errorf("cactus: kernel graph disconnected (%d of %d vertices reachable)", len(order), nk)
	}
	nsteps := nk - 1
	if workers > nsteps {
		workers = nsteps
	}

	var count atomic.Int64
	if workers <= 1 || nsteps < 2*ktMinChunkSteps {
		p := flow.NewProgressive(kg, order[0])
		arena := newBitsetArena(nk)
		var cuts []bitset
		for i := 1; i < nk; i++ {
			if i > 1 {
				p.AbsorbSource(order[i-1])
			}
			if err := ktStep(ctx, p, arena, order, i, nk, lambda, maxCuts, &count, &cuts); err != nil {
				return nil, err
			}
		}
		return cuts, nil
	}
	return ktEnumerateStealing(ctx, kg, lambda, maxCuts, order, workers, &count)
}

// ktMinChunkSteps floors the steps-per-segment of the sharded
// enumeration: below it the O(m) per-segment network build (or rewind)
// dominates the λ-capped augmentation the segment actually performs.
// Stealing keeps both halves of a split at or above this floor.
const ktMinChunkSteps = 8

// ktSegment is a contiguous range [lo, hi) of KT steps.
type ktSegment struct{ lo, hi int }

// ktSegmentState is the live view of one worker's claimed segment: pos
// is the step it is currently executing, hi the exclusive bound. A
// thief shrinks hi under the scheduler lock; the victim observes the
// new bound at its next advance.
type ktSegmentState struct {
	pos     int
	hi      int
	claimed bool
}

// ktScheduler hands the KT steps out as splittable segments: claim pops
// a pending segment if any remain, and otherwise steals the upper half
// of the largest remaining claimed range. All state is guarded by one
// mutex — a KT step is a λ-capped max-flow round, so the per-step lock
// is noise next to the work it schedules.
type ktScheduler struct {
	mu      sync.Mutex
	pending []ktSegment
	active  []ktSegmentState
}

// claim hands worker w its next segment, stealing if the pending list
// is empty. It returns false when no segment remains and every active
// segment is too short to split — the remaining tail is then at most
// 2·ktMinChunkSteps steps per surviving worker.
func (s *ktScheduler) claim(w int) (ktSegment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.pending); n > 0 {
		seg := s.pending[n-1]
		s.pending = s.pending[:n-1]
		s.active[w] = ktSegmentState{pos: seg.lo, hi: seg.hi, claimed: true}
		return seg, true
	}
	best, bestRem := -1, 2*ktMinChunkSteps-1
	for i := range s.active {
		a := &s.active[i]
		if !a.claimed || i == w {
			continue
		}
		// Steps strictly after the one the victim is executing.
		if rem := a.hi - a.pos - 1; rem > bestRem {
			best, bestRem = i, rem
		}
	}
	if best < 0 {
		return ktSegment{}, false
	}
	victim := &s.active[best]
	seg := ktSegment{lo: victim.hi - bestRem/2, hi: victim.hi}
	victim.hi = seg.lo
	s.active[w] = ktSegmentState{pos: seg.lo, hi: seg.hi, claimed: true}
	return seg, true
}

// advance records that worker w finished its current step and returns
// the next step of its segment, or false when the segment — possibly
// shrunk by thieves since the last call — is exhausted.
func (s *ktScheduler) advance(w int) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := &s.active[w]
	a.pos++
	if a.pos >= a.hi {
		a.claimed = false
		return 0, false
	}
	return a.pos, true
}

// abort releases worker w's segment without finishing it (error or
// sibling-failure shutdown), so thieves stop seeing it as splittable.
func (s *ktScheduler) abort(w int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active[w].claimed = false
}

// ktEnumerateStealing runs the KT steps [1, nk) across workers under
// the stealing scheduler. Each worker keeps ONE Progressive across all
// the segments it processes: a segment starting at or beyond the
// absorbed source prefix extends it with AbsorbSources, and a segment
// starting before it rewinds the same allocations with Reset — no
// per-segment network rebuild either way.
func ktEnumerateStealing(ctx context.Context, kg *graph.Graph, lambda int64, maxCuts int, order []int32, workers int, count *atomic.Int64) ([]bitset, error) {
	nk := len(order)
	nsteps := nk - 1
	nsegs := nsteps / ktMinChunkSteps
	if nsegs > workers {
		nsegs = workers
	}
	if nsegs < 1 {
		nsegs = 1
	}
	sched := &ktScheduler{active: make([]ktSegmentState, workers)}
	// Pushed in reverse so the LIFO pop hands segments out in step order.
	for c := nsegs - 1; c >= 0; c-- {
		sched.pending = append(sched.pending, ktSegment{
			lo: 1 + c*nsteps/nsegs, hi: 1 + (c+1)*nsteps/nsegs,
		})
	}

	type segResult struct {
		lo   int
		cuts []bitset
	}
	type stepError struct {
		step int
		err  error
	}
	var (
		resMu   sync.Mutex
		results []segResult
		errs    []stepError
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	fail := func(step int, err error) {
		resMu.Lock()
		errs = append(errs, stepError{step, err})
		resMu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var p *flow.Progressive
			arena := newBitsetArena(nk)
			absorbed := 0 // source set is order[:absorbed]
			for {
				seg, ok := sched.claim(w)
				if !ok {
					return
				}
				if p == nil {
					p = flow.NewProgressive(kg, order[0])
					absorbed = 1
				} else if seg.lo < absorbed {
					p.Reset(order[0])
					absorbed = 1
				}
				p.AbsorbSources(order[absorbed:seg.lo])
				absorbed = seg.lo
				var cuts []bitset
				for i := seg.lo; ; {
					if stop.Load() {
						sched.abort(w)
						return
					}
					if absorbed < i {
						p.AbsorbSource(order[i-1])
						absorbed = i
					}
					if err := ktStep(ctx, p, arena, order, i, nk, lambda, maxCuts, count, &cuts); err != nil {
						fail(i, err)
						sched.abort(w)
						return
					}
					next, more := sched.advance(w)
					if !more {
						break
					}
					i = next
				}
				resMu.Lock()
				results = append(results, segResult{lo: seg.lo, cuts: cuts})
				resMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// The earliest step's error wins so the reported failure matches the
	// sequential run regardless of the steal schedule.
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].step < errs[j].step })
		return nil, errs[0].err
	}
	sort.Slice(results, func(i, j int) bool { return results[i].lo < results[j].lo })
	total := 0
	for _, r := range results {
		total += len(r.cuts)
	}
	cuts := make([]bitset, 0, total)
	for _, r := range results {
		cuts = append(cuts, r.cuts...)
	}
	return cuts, nil
}

// ktStep runs KT step i — target order[i] against the contracted prefix
// order[:i], which must already be p's source set — and appends the
// step's cut chain to *cuts. Each chain cut is materialized
// incrementally from its predecessor via the ChainCuts delta, with the
// bitsets carved from the caller's slab arena. count is the
// cross-segment cut counter enforcing maxCuts.
func ktStep(ctx context.Context, p *flow.Progressive, arena *bitsetArena, order []int32, i, nk int, lambda int64, maxCuts int, count *atomic.Int64, cuts *[]bitset) error {
	t := order[i]
	v, err := p.MaxFlowTo(ctx, t, lambda)
	if err != nil {
		return fmt.Errorf("cactus: KT enumeration interrupted at step %d of %d: %w", i, nk-1, err)
	}
	if v < lambda {
		return fmt.Errorf("cactus: KT step found a cut of value %d below λ=%d (wrong Options.Lambda?)", v, lambda)
	}
	if v > lambda {
		return nil // no global minimum cut separates v_i from the prefix
	}
	overflow := false
	var prev bitset
	_, err = p.ChainCuts(t, func(side []bool, added []int32) bool {
		if count.Add(1) > int64(maxCuts) {
			overflow = true
			return false
		}
		var m bitset
		if prev == nil {
			m = arena.alloc()
			for x, in := range side {
				if in {
					m.set(x)
				}
			}
		} else {
			m = arena.clone(prev)
			for _, x := range added {
				m.set(int(x))
			}
		}
		prev = m
		*cuts = append(*cuts, m)
		return true
	})
	if err != nil {
		return fmt.Errorf("cactus: KT step %d (target %d): %w", i, t, err)
	}
	if overflow {
		return fmt.Errorf("cactus: more than %d minimum cuts; raise Options.MaxCuts: %w", maxCuts, ErrTooManyCuts)
	}
	return nil
}

// adjacencyOrder returns a BFS order from root: every vertex after the
// first is adjacent to an earlier one, which is exactly the Karzanov–
// Timofeev requirement (the step target must share an edge with the
// contracted prefix, or the per-step cut family is not a chain).
func adjacencyOrder(g *graph.Graph, root int32) []int32 {
	cs := g.CSR()
	n := g.NumVertices()
	order := make([]int32, 0, n)
	seen := make([]bool, n)
	seen[root] = true
	order = append(order, root)
	for head := 0; head < len(order); head++ {
		v := order[head]
		for i, end := cs.XAdj[v], cs.XAdj[v+1]; i < end; i++ {
			if w := cs.Adj[i]; !seen[w] {
				seen[w] = true
				order = append(order, w)
			}
		}
	}
	return order
}
