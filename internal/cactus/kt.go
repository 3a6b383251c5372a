package cactus

import (
	"context"
	"fmt"
	"slices"
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
// predecessor by one residual component, so the step is recorded as the
// parts the chain splits the kernel into (chainLog), never as one set
// per cut.
//
// Every global minimum cut is collected exactly once: a cut whose far
// side's earliest-ordered vertex is v_i appears in step i and in no
// other, so no deduplication is needed.
//
// The steps shard across workers with SEGMENT-LEVEL WORK STEALING: each
// step's cut chain depends only on the graph and the (prefix, v_i) pair
// — not on the flow state some earlier step left behind — so any
// contiguous step range [lo, hi) can run on its own Progressive with
// order[1:lo] pre-absorbed as the contracted source prefix. The range
// starts as one even segment per worker; an idle worker then steals the
// upper half of the largest remaining segment (ktScheduler), so one
// skewed segment (star-of-cycles kernels put nearly all chain work in a
// few steps) does not serialize the tail. Segments are kept in step
// order, and each step's chain is independent of how the segments were
// carved, so the chains are the same for every worker count and every
// steal schedule; one worker runs one segment. Each worker keeps ONE
// Progressive and one chainLog across all the segments it processes: a
// segment starting at or beyond the absorbed source prefix extends it
// with AbsorbSources, and a segment starting before it rewinds the same
// allocations with Reset — no per-segment network rebuild either way.
//
// Cost: one network build and nk-1 λ-capped augmentation rounds divided
// across the workers (each round O(λ̄) augmenting paths of O(m) plus an
// O(m) SCC sweep, totalling the O(n·m)-flavored bound of Karzanov and
// Timofeev), O(nk) per step to record its chain, and one extra network
// build (or Progressive rewind) plus one from-scratch λ-capped flow per
// stolen segment.
func ktEnumerate(ctx context.Context, kg *graph.Graph, k0 int32, lambda int64, maxCuts, workers int) (cutFamily, error) {
	nk := kg.NumVertices()
	order := adjacencyOrder(kg, k0)
	if len(order) != nk {
		return nil, fmt.Errorf("cactus: kernel graph disconnected (%d of %d vertices reachable)", len(order), nk)
	}
	if nk < 2 { // a too-small supplied λ can contract the kernel to one vertex
		return &ktChains{nk: nk}, nil
	}
	nsteps := nk - 1
	workers = min(max(workers, 1), nsteps)
	nsegs := min(max(nsteps/ktMinChunkSteps, 1), workers)
	sched := &ktScheduler{active: make([]ktSegmentState, workers)}
	// Pushed in reverse so the LIFO pop hands segments out in step order.
	for c := nsegs - 1; c >= 0; c-- {
		sched.pending = append(sched.pending, ktSegment{
			lo: 1 + c*nsteps/nsegs, hi: 1 + (c+1)*nsteps/nsegs,
		})
	}

	type stepError struct {
		step int
		err  error
	}
	var (
		resMu sync.Mutex
		segs  []chainSeg
		errs  []stepError
		count atomic.Int64
		stop  atomic.Bool
		wg    sync.WaitGroup
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
			log := newChainLog(nk)
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
				first := len(log.steps)
				for i := seg.lo; ; {
					if stop.Load() {
						sched.abort(w)
						return
					}
					if absorbed < i {
						p.AbsorbSource(order[i-1])
						absorbed = i
					}
					if err := ktStep(ctx, p, log, order, i, lambda, maxCuts, &count); err != nil {
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
				segs = append(segs, chainSeg{log: log, first: seg.lo, lo: first, hi: len(log.steps)})
				resMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// The earliest step's error wins so the reported failure matches a
	// one-worker run regardless of the steal schedule.
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].step < errs[j].step })
		return nil, errs[0].err
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return &ktChains{nk: nk, segs: segs, count: int(count.Load())}, nil
}

// ktChains is a kernel's minimum-cut family as KT produced it: one
// chain per step, recorded as parts. It is what the merge (merge.go)
// builds the cactus from.
type ktChains struct {
	nk    int
	segs  []chainSeg // in step order
	count int        // cuts over all chains
}

func (c *ktChains) size() int { return c.count }

// chainSeg is the recorded steps [lo, hi) of log: one segment of the
// enumeration, starting at KT step first.
type chainSeg struct {
	log    *chainLog
	first  int
	lo, hi int
}

// chainLog records the KT steps of one worker. A step with target v_i
// and source set S_i = {v_0..v_{i-1}} emits nested t-sides
// X_0 ⊂ … ⊂ X_{r-1}; it is recorded as the parts
//
//	P_0 = X_0 (holding v_i), P_j = X_j \ X_{j-1} for 0 < j < r,
//
// and the implicit rest P_r, which holds S_i. A part is stored as its
// single vertex, a vertex list or a kernel bitset, whichever is
// smallest, so no part costs more than one materialized cut would, and
// the parts of a step are disjoint, so a step costs O(nk) words at
// most. A step whose flow exceeds λ records nothing. The slices only
// grow, so a worker reuses one log across all its segments.
type chainLog struct {
	words int // bitset width in words
	steps []chainStep
	sizes []int32  // per part: ^v for the single vertex v, n > 0 for a list of n vertices, 0 for a bitset
	verts []int32  // list parts, concatenated
	bits  []uint64 // bitset parts, concatenated
	side  []int32  // scratch: the members of a step's first part
}

// chainStep locates one recorded step: its target and where its parts,
// list vertices and bitset words start. The step's records end where
// the next step's start.
type chainStep struct {
	target             int32
	parts, verts, bits int
}

func newChainLog(nk int) *chainLog { return &chainLog{words: (nk + 63) / 64} }

// begin opens the record of a step with target t.
func (l *chainLog) begin(t int32) {
	l.steps = append(l.steps, chainStep{target: t, parts: len(l.sizes), verts: len(l.verts), bits: len(l.bits)})
}

// addPart appends one part of the open step: the members vs or, when vs
// is nil, the vertices set in side.
func (l *chainLog) addPart(vs []int32, side []bool) {
	if vs == nil {
		l.side = l.side[:0]
		for v, in := range side {
			if in {
				l.side = append(l.side, int32(v))
			}
		}
		vs = l.side
	}
	l.sizes = reserve(l.sizes, 1)
	switch {
	case len(vs) == 1:
		l.sizes = append(l.sizes, ^vs[0])
	case len(vs) <= 2*l.words: // 4 bytes per listed vertex, 8 per bitset word
		l.sizes = append(l.sizes, int32(len(vs)))
		l.verts = append(reserve(l.verts, len(vs)), vs...)
	default:
		l.sizes = append(l.sizes, 0)
		base := len(l.bits)
		l.bits = reserve(l.bits, l.words)[:base+l.words]
		b := bitset(l.bits[base:])
		clear(b)
		for _, v := range vs {
			b.set(int(v))
		}
	}
}

// reserve makes room for n more elements in s, at least doubling its
// capacity when it grows: append alone grows a large slice by a quarter
// at a time, which would copy a long log about five times over.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// eachVertex calls fn with every vertex of step k's recorded parts and
// the index of its part, parts in chain order, and returns the number of
// recorded parts.
func (l *chainLog) eachVertex(k int, fn func(part, v int32)) int32 {
	st := l.steps[k]
	end := len(l.sizes)
	if k+1 < len(l.steps) {
		end = l.steps[k+1].parts
	}
	vo, bo := st.verts, st.bits
	for j, size := range l.sizes[st.parts:end] {
		switch {
		case size < 0:
			fn(int32(j), ^size)
		case size > 0:
			for _, v := range l.verts[vo : vo+int(size)] {
				fn(int32(j), v)
			}
			vo += int(size)
		default:
			bitset(l.bits[bo : bo+l.words]).forEachSet(func(v int) { fn(int32(j), int32(v)) })
			bo += l.words
		}
	}
	return int32(end - st.parts)
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

// ktStep runs KT step i — target order[i] against the contracted prefix
// order[:i], which must already be p's source set — and records the
// step's cut chain in log. count is the cross-segment cut counter
// enforcing maxCuts.
func ktStep(ctx context.Context, p *flow.Progressive, log *chainLog, order []int32, i int, lambda int64, maxCuts int, count *atomic.Int64) error {
	nk := len(order)
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
	log.begin(t)
	_, err = p.ChainCuts(t, func(side []bool, added []int32) bool {
		if count.Add(1) > int64(maxCuts) {
			overflow = true
			return false
		}
		log.addPart(added, side)
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
