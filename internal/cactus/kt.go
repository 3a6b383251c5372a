package cactus

import (
	"context"
	"fmt"
	"slices"
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
// The steps shard across workers through one shared counter, from which
// each worker claims the next step. A step's cut chain depends only on
// the graph and its (prefix, v_i) pair, not on the flow state earlier
// steps left behind, so a worker runs only the steps it claims: it
// builds its Progressive on its first claim and, before each step,
// absorbs the targets it skipped into the source set. Claims only
// increase, so a worker's absorbed prefix never passes its next target
// and nothing is rewound. Each worker records its steps in its own
// chainLog and files each step's record under the step's index, so the
// chains come out in step order, the same for every worker count and
// every schedule.
//
// A failed step stops its worker, and the others skip only the steps
// above the lowest failed one. Every lower step still runs, so a step
// that fails whenever it runs (a cut below a wrong λ, a family that is
// not a chain) is reported exactly as a one-worker run reports it. The
// cut cap is one count across all workers: its error names no step, but
// which step reaches it first depends on the schedule.
//
// Cost: one network build per worker and nk-1 λ-capped augmentation
// rounds divided across the workers (each round O(λ̄) augmenting paths
// of O(m) plus an O(m) SCC sweep, totalling the O(n·m)-flavored bound of
// Karzanov and Timofeev), O(nk) per step to record its chain, and O(nk)
// per worker to absorb the steps it skips.
func ktEnumerate(ctx context.Context, kg *graph.Graph, k0 int32, lambda int64, maxCuts, workers int) (cutFamily, error) {
	nk := kg.NumVertices()
	order := adjacencyOrder(kg, k0)
	if len(order) != nk {
		return nil, fmt.Errorf("cactus: kernel graph disconnected (%d of %d vertices reachable)", len(order), nk)
	}
	if nk < 2 { // a too-small supplied λ can contract the kernel to one vertex
		return &ktChains{nk: nk}, nil
	}
	workers = min(max(workers, 1), nk-1)
	segs := make([]chainSeg, nk) // segs[i] is step i's record
	errs := make([]error, nk)    // errs[i] is step i's failure
	var (
		next   atomic.Int64 // the last claimed step
		failed atomic.Int64 // the lowest failed step, nk while none has
		count  atomic.Int64
		wg     sync.WaitGroup
	)
	failed.Store(int64(nk))
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p *flow.Progressive
			log := newChainLog(nk)
			absorbed := 1 // p's source set is order[:absorbed]
			for {
				i := int(next.Add(1))
				if i >= nk || int64(i) > failed.Load() {
					return
				}
				if p == nil {
					p = flow.NewProgressive(kg, order[0])
				}
				p.AbsorbSources(order[absorbed:i])
				absorbed = i
				lo := len(log.steps)
				if err := ktStep(ctx, p, log, order, i, lambda, maxCuts, &count); err != nil {
					errs[i] = err
					for f := failed.Load(); int64(i) < f; f = failed.Load() {
						if failed.CompareAndSwap(f, int64(i)) {
							break
						}
					}
					return
				}
				segs[i] = chainSeg{log: log, lo: lo, hi: len(log.steps)}
			}
		}()
	}
	wg.Wait()
	if f := failed.Load(); f < int64(nk) {
		return nil, errs[f]
	}
	segs = slices.DeleteFunc(segs, func(s chainSeg) bool { return s.lo == s.hi })
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

// chainSeg is the recorded steps [lo, hi) of log: the record of one KT
// step that found cuts.
type chainSeg struct {
	log    *chainLog
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
// grow, so a worker reuses one log across all its steps.
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

// ktStep runs KT step i — target order[i] against the contracted prefix
// order[:i], which must already be p's source set — and records the
// step's cut chain in log. count is the cut counter, shared by all
// workers, that enforces maxCuts.
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
