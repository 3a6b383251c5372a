package mincut

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/baseline"
	"repro/internal/cactus"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/noi"
	"repro/internal/pq"
	"repro/internal/viecut"
)

// SnapshotOptions configures every query a Snapshot can answer. The zero
// value requests the paper's defaults throughout (parallel exact solver,
// KT enumeration after kernelization).
type SnapshotOptions struct {
	// Solve configures MinCut (and the certification probes of Apply).
	Solve Options
	// AllCuts configures AllMinCuts.
	AllCuts AllCutsOptions
}

// GraphStats summarizes a snapshot's graph; computed once, lazily.
type GraphStats struct {
	Vertices    int   `json:"vertices"`
	Edges       int   `json:"edges"`
	TotalWeight int64 `json:"total_weight"`
	MinDegree   int64 `json:"min_degree"`
	Components  int   `json:"components"`
}

// Snapshot is an immutable graph plus lazily-computed, cached
// certificates: the minimum-cut value with a witness, the all-minimum-
// cuts cactus, and graph statistics. All methods are safe for concurrent
// use; concurrent queries for the same certificate share one computation
// (single flight). Cancelling the context of an in-flight computation
// aborts it without poisoning the cache — the next caller simply retries.
//
// Snapshots are versioned by an epoch: Apply produces a NEW snapshot for
// the mutated graph (the receiver is untouched), carrying over every
// cached certificate it can prove still valid. Swapping an atomic pointer
// from the old snapshot to the new one is the intended concurrency
// pattern (see cmd/mincutd): readers keep querying the epoch they hold
// while writers publish the next.
type Snapshot struct {
	g     *graph.Graph
	epoch uint64
	opts  SnapshotOptions

	lambda certCell[Cut]
	cuts   certCell[*AllCuts]

	statsOnce sync.Once
	stats     GraphStats
}

// NewSnapshot wraps g (which must not be modified afterwards — Graphs
// are immutable by convention) in a fresh epoch-0 snapshot. Option
// defaults are normalized once here, so every query and every derived
// snapshot sees the same configuration.
func NewSnapshot(g *Graph, opts SnapshotOptions) *Snapshot {
	if g == nil {
		panic("mincut: NewSnapshot on nil graph")
	}
	if opts.Solve.Seed == 0 {
		opts.Solve.Seed = 1
	}
	if opts.Solve.Epsilon <= 0 {
		opts.Solve.Epsilon = 0.5
	}
	if opts.AllCuts.Seed == 0 {
		opts.AllCuts.Seed = 1
	}
	return &Snapshot{g: g, opts: opts}
}

// RestoreSnapshot wraps g at the given epoch with cold caches. It
// exists for services that persist a mutation log: after replaying the
// log onto the base graph at boot (see cmd/mincutd -wal), the
// daemon resumes numbering where the previous process stopped, so
// clients comparing epochs across a restart never see time move
// backwards. Certificates are re-derived lazily on first query.
func RestoreSnapshot(g *Graph, epoch uint64, opts SnapshotOptions) *Snapshot {
	s := NewSnapshot(g, opts)
	s.epoch = epoch
	return s
}

// Graph returns the snapshot's graph (shared, not a copy).
func (s *Snapshot) Graph() *Graph { return s.g }

// Epoch returns the snapshot's version: 0 for NewSnapshot, parent+1 for
// snapshots produced by Apply.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Stats returns the graph statistics, computing them on first use.
func (s *Snapshot) Stats() GraphStats {
	s.statsOnce.Do(func() {
		_, k := s.g.Components()
		st := GraphStats{
			Vertices:    s.g.NumVertices(),
			Edges:       s.g.NumEdges(),
			TotalWeight: s.g.TotalWeight(),
			Components:  k,
		}
		if st.Vertices > 0 {
			_, st.MinDegree = s.g.MinDegreeVertex()
		}
		s.stats = st
	})
	return s.stats
}

// MinCut returns the (cached) minimum cut under the snapshot's Solve
// options. The first caller computes; concurrent callers share that
// computation. ctx cancellation aborts the caller's wait — and, when the
// caller is the one computing, the computation itself at its next phase
// boundary — without caching the aborted partial result.
func (s *Snapshot) MinCut(ctx context.Context) (Cut, error) {
	return s.lambda.get(ctx, func() (Cut, error) {
		return solveCtx(ctx, s.g, s.opts.Solve)
	})
}

// AllMinCuts returns the (cached) all-minimum-cuts result under the
// snapshot's AllCuts options, with the same single-flight and
// cancellation semantics as MinCut. A cached exact MinCut result seeds
// the enumeration's λ (skipping its internal solve); conversely a
// successful enumeration seeds the MinCut cache with λ and a witness.
func (s *Snapshot) AllMinCuts(ctx context.Context) (*AllCuts, error) {
	return s.cuts.get(ctx, func() (*AllCuts, error) {
		copts := cactus.Options{
			Workers:       s.opts.AllCuts.Workers,
			Seed:          s.opts.AllCuts.Seed,
			MaxCuts:       s.opts.AllCuts.MaxCuts,
			NoMaterialize: s.opts.AllCuts.NoMaterialize,
		}
		if lam, ok := s.lambda.peek(); ok && lam.Exact && lam.Value > 0 {
			copts.Lambda = lam.Value
		}
		res, err := cactus.AllMinCuts(ctx, s.g, copts)
		if err != nil {
			return nil, err
		}
		if lam, ok := cutFromAllCuts(res); ok {
			s.lambda.seed(lam)
		}
		return res, nil
	})
}

// CutValue evaluates the cut described by side on the snapshot's graph.
func (s *Snapshot) CutValue(side []bool) int64 { return CutValue(s.g, side) }

// STMinCut computes a minimum s-t cut (value and source-side witness)
// with Dinic's algorithm on the snapshot's graph. Not cached — the
// (s,t) key space is quadratic. It returns an error when src or dst is
// not a vertex of the graph or src == dst. Cancellation is checked per
// BFS phase.
func (s *Snapshot) STMinCut(ctx context.Context, src, dst int32) (int64, []bool, error) {
	return flow.MinSTCut(ctx, s.g, src, dst)
}

// LambdaCached returns the cached minimum cut, if one has been computed
// (or carried over by Apply). It never triggers a computation.
func (s *Snapshot) LambdaCached() (Cut, bool) { return s.lambda.peek() }

// CactusCached returns the cached all-minimum-cuts result, if present.
// It never triggers a computation.
func (s *Snapshot) CactusCached() (*AllCuts, bool) { return s.cuts.peek() }

// Apply produces the snapshot of the graph obtained by applying batch in
// order, reusing every cached certificate that provably survives the
// mutations; the receiver is unchanged.
//
// The whole batch is validated before any graph or certificate work:
// every mutation must have a known op, endpoints in [0,n), strictly
// positive weight for inserts, and no self-loop deletes (self-loop
// inserts are no-ops, mirroring FromEdges). A violation returns an
// error wrapping ErrInvalidMutation and leaves no trace — in particular
// the cached certificates are never indexed by an unvalidated vertex
// id, so a hostile batch cannot panic a server holding a warm cache.
// Deleting an edge that does not exist (a graph-state condition, not a
// structural one) is still reported from the mutation's position in the
// batch, without ErrInvalidMutation, with the same error whether or not
// certificates are cached.
//
// The reuse rules — each sound, none complete (a failed proof forces
// lazy recomputation, never a wrong answer):
//
// Insertion of {u,v} (never lowers any cut's value, hence never λ):
//   - u,v in the same cactus node: no minimum cut separates them, so
//     every minimum cut's value is unchanged and no other cut can drop
//     to λ — the entire family (λ, witness, cactus) is preserved.
//   - different nodes, but some cached minimum cut keeps u,v on one
//     side: that cut still has value λ, so λ and that witness survive;
//     the family shrinks to the non-separating cuts, so the cactus is
//     recomputed lazily.
//   - every cached minimum cut separates u,v: λ may grow; drop all.
//
// Deletion of {u,v} with weight w (lowers exactly the cuts separating
// u and v, by w), tried in this order:
//   - some cached minimum cut separates u,v (the λ−w rule): every cut
//     value only drops if the cut separates u,v, and then by exactly w,
//     so the separating minimum cuts land on λ−w and nothing can go
//     lower — the new λ is λ−w, witnessed by any cached minimum cut
//     that crosses {u,v}. λ and that witness are carried (counted in
//     Reused.DeleteReuses); the surviving cut family is unknown, so the
//     cactus is recomputed lazily.
//   - otherwise the entire family survives if λ(u,v) ≥ λ+w+1 on the
//     pre-deletion graph: then no minimum cut separates u,v, every cut
//     separating u,v stays strictly above λ after losing w, and the
//     other cuts keep their values. Three rules follow that find that
//     this bound cannot hold or certify it.
//   - the degree test: {u} and {v} separate u,v, so λ(u,v) ≤
//     min(c(u), c(v)). If that is below λ+w+1, no probe can certify, so
//     none runs, and the failed-probe rules below apply at once.
//   - the local certificate (Padberg–Rinaldi's PR3, see internal/pr):
//     if Σ_{x ∈ N(u)∩N(v)} min(c(u,x), c(v,x)) ≥ λ+1, the family is
//     preserved with no probe (counted in Reused.LocalCerts). Proof: a
//     cut separating u,v contains {u,v}, and for each common neighbour
//     x, whichever side x is on, it contains {u,x} or {v,x}; these
//     edges are distinct, so the cut weighs at least w + Σ ≥ λ+w+1.
//     The sum walks the two adjacency lists of the last built CSR and
//     skips the pairs deleted since; with no insert queued at a delete
//     (see below), that is the graph at its position.
//   - otherwise a CAPFOREST probe (core.CertifyConnectivity, which
//     only certifies what holds) tries to certify λ(u,v) ≥ λ+w+1; on
//     success the entire family is preserved.
//   - certification failed, w = 1, and the cactus is cached: the
//     cactus proves no minimum cut separates u,v, so separating cuts
//     are ≥ λ+1 and stay ≥ λ — λ and the witness survive, but cuts may
//     join the family at λ, so the cactus is recomputed lazily.
//   - otherwise: drop all.
//
// λ = 0 (disconnected): a deletion cannot disconnect further below 0 and
// the weight-0 witness crosses no edge, so λ and the witness survive any
// deletion; an insertion may reconnect components, so everything is
// dropped.
//
// Every rule judges a mutation against the graph at its position in the
// batch, but only the certification probe reads that graph's CSR, so
// mutations are queued in one pending delta and the CSR is rebuilt only
// before a probe, before a delete that follows a queued insert, and
// once at the end (Reused.Rebuilds counts them). A rebuild error, such
// as a total edge weight past int64, names the range of mutations that
// rebuild covered, from the previous rebuild on; which deletes needed a
// probe, and so a rebuild, decides where that range starts. On ctx
// cancellation (checked per mutation and inside certification probes)
// no new snapshot is produced and the receiver's caches are untouched.
func (s *Snapshot) Apply(ctx context.Context, batch []Mutation) (*Snapshot, Reused, error) {
	var r Reused

	// Validation pass: reject the whole batch before touching any
	// certificate. Certificate logic below indexes witness arrays and the
	// cactus by m.U/m.V, so it must never see an unvalidated id.
	n := s.g.NumVertices()
	for i, m := range batch {
		if err := m.validate(i, n); err != nil {
			return nil, Reused{}, err
		}
	}

	lam, lamOK := s.lambda.peek()
	if lamOK && (!lam.Exact || lam.Side == nil) {
		lamOK = false // inexact or degenerate cuts certify nothing
	}
	cact, cactOK := s.cuts.peek()
	if cactOK && (cact == nil || !cact.Connected || cact.Cactus == nil) {
		cactOK = false // disconnected results are cheap; don't carry them
	}
	if !lamOK && cactOK {
		lam, lamOK = cutFromAllCuts(cact)
	}
	if !lamOK {
		cactOK = false
	}

	certSeed := s.opts.Solve.Seed

	// Every mutation joins one pending delta. graph.ApplyDelta deletes
	// before it inserts, so the delta is a run of deletes followed by a
	// run of inserts, and the CSR is rebuilt only when something must
	// read the graph as of a mutation: a certification probe, a delete
	// that follows a queued insert, and the end of the batch. The rules
	// need nothing else: insert rules read only the cached cut and
	// cactus, and a delete reads pend only with no insert queued, when
	// its CSR minus the queued deletes is the graph at its position.
	// pendFrom is the first mutation the pending delta covers, so a
	// rebuild error names the range it came from.
	pend := newPendingDelta(s.g)
	pendFrom := 0
	flush := func(end int) error {
		if len(pend.ins) == 0 && len(pend.del) == 0 {
			return nil
		}
		if err := pend.rebuild(); err != nil {
			return fmt.Errorf("mincut: mutations %d..%d: %w", pendFrom, end-1, err)
		}
		pendFrom = end
		r.Rebuilds++
		return nil
	}

	for i, m := range batch {
		if err := ctx.Err(); err != nil {
			return nil, Reused{}, err
		}
		if m.U == m.V {
			continue // self-loop insert: FromEdges semantics, a no-op
		}

		switch m.Op {
		case MutInsert:
			switch {
			case !lamOK:
			case lam.Value == 0:
				lamOK, cactOK = false, false // may reconnect components
			case !cactOK:
				lamOK = lam.Side[m.U] == lam.Side[m.V]
			case !cact.Cactus.Crosses(m.U, m.V):
				// Same atom: full family preserved.
			default:
				if side := firstMinCut(cact, func(s []bool) bool { return s[m.U] == s[m.V] }); side != nil {
					lam = Cut{Value: lam.Value, Side: side, Exact: true, Algorithm: lam.Algorithm}
					cactOK = false
				} else {
					lamOK, cactOK = false, false
				}
			}
			pend.ins = append(pend.ins, Edge{U: m.U, V: m.V, Weight: m.Weight})

		case MutDelete:
			if len(pend.ins) > 0 {
				if err := flush(i); err != nil {
					return nil, Reused{}, err
				}
			}
			w := pend.weight(m.U, m.V)
			if w == 0 {
				return nil, Reused{}, errMissingEdge(i, m)
			}
			if lamOK && lam.Value == 0 {
				cactOK = false // λ and the 0-weight witness survive; stats like Components do not
			} else if lamOK {
				crosses := lam.Side[m.U] != lam.Side[m.V]
				if cactOK {
					crosses = cact.Cactus.Crosses(m.U, m.V)
				}
				if crosses {
					// λ−w rule: a cached minimum cut separates u,v. Cuts
					// separating u,v drop by exactly w (to ≥ λ−w), all others
					// are unchanged (≥ λ), so the new λ is exactly λ−w,
					// witnessed by any cached minimum cut crossing {u,v}.
					side := lam.Side
					if side[m.U] == side[m.V] {
						// crosses came from the cactus; pull a separating
						// witness out of the cut family.
						side = firstMinCut(cact, func(s []bool) bool { return s[m.U] != s[m.V] })
					}
					if side != nil {
						lam = Cut{Value: lam.Value - w, Side: side, Exact: true, Algorithm: lam.Algorithm}
						cactOK = false
						r.DeleteReuses++
					} else {
						lamOK, cactOK = false, false
					}
				} else {
					var certified bool
					switch {
					case pend.degree(m.U)-w <= lam.Value || pend.degree(m.V)-w <= lam.Value:
						// λ(u,v) ≤ min(c(u), c(v)) < λ+w+1: no probe can certify.
					case pend.triangles(m.U, m.V, lam.Value+1) > lam.Value:
						certified = true
						r.LocalCerts++
					default:
						// The probe reads the graph as of this mutation.
						if err := flush(i); err != nil {
							return nil, Reused{}, err
						}
						r.CertifyCalls++
						certSeed += 1000003
						var err error
						certified, err = core.CertifyConnectivity(ctx, pend.g, m.U, m.V, lam.Value+w+1, s.opts.Solve.Workers, certSeed)
						if err != nil {
							return nil, Reused{}, fmt.Errorf("mincut: mutation %d: certification interrupted: %w", i, err)
						}
					}
					switch {
					case certified:
						// Full family preserved.
					case w == 1 && cactOK:
						cactOK = false // λ+witness survive; family may grow at λ
					default:
						lamOK, cactOK = false, false
					}
				}
			}
			pend.remove(m.U, m.V, w)
		}
	}
	if err := flush(len(batch)); err != nil {
		return nil, Reused{}, err
	}

	ns := NewSnapshot(pend.g, s.opts)
	ns.epoch = s.epoch + 1
	if lamOK {
		ns.lambda.seed(lam)
		r.Lambda = true
	}
	if cactOK {
		ns.cuts.seed(cact)
		r.Cactus = true
	}
	return ns, r, nil
}

// pendingDelta is the delta queued on g, the CSR last built, in
// graph.ApplyDelta's terms: a run of deletes followed by a run of
// inserts. With no insert queued, g minus the deletes is the graph at
// the current mutation, which weight, degree and triangles read: gone
// holds the deleted pairs and lost the weight each endpoint lost.
type pendingDelta struct {
	g    *graph.Graph
	ins  []Edge
	del  [][2]int32
	gone map[[2]int32]bool // normalized deleted pairs
	lost map[int32]int64
}

func newPendingDelta(g *graph.Graph) *pendingDelta {
	return &pendingDelta{g: g, gone: map[[2]int32]bool{}, lost: map[int32]int64{}}
}

// pairOf orders an edge's endpoints into gone's key.
func pairOf(u, v int32) [2]int32 { return [2]int32{min(u, v), max(u, v)} }

// remove queues the delete of {u,v}, of weight w.
func (p *pendingDelta) remove(u, v int32, w int64) {
	p.del = append(p.del, [2]int32{u, v})
	p.gone[pairOf(u, v)] = true
	p.lost[u] += w
	p.lost[v] += w
}

// rebuild applies the delta to g and empties it.
func (p *pendingDelta) rebuild() error {
	g, err := graph.ApplyDelta(p.g, p.ins, p.del)
	if err != nil {
		return err
	}
	p.g, p.ins, p.del = g, p.ins[:0], p.del[:0]
	clear(p.gone)
	clear(p.lost)
	return nil
}

// weight returns c(u,v), 0 if there is no such edge.
func (p *pendingDelta) weight(u, v int32) int64 {
	if p.gone[pairOf(u, v)] {
		return 0
	}
	return p.g.EdgeWeight(u, v)
}

// degree returns the weighted degree c(v).
func (p *pendingDelta) degree(v int32) int64 { return p.g.WeightedDegree(v) - p.lost[v] }

// triangles returns Σ_{x ∈ N(u)∩N(v)} min(c(u,x), c(v,x)), or need once
// the sum reaches need. It walks the two neighbour-sorted lists of g in
// O(deg u + deg v), skipping deleted pairs, and looks gone up only at an
// endpoint that lost an edge.
func (p *pendingDelta) triangles(u, v int32, need int64) int64 {
	nu, wu := p.g.Neighbors(u), p.g.Weights(u)
	nv, wv := p.g.Neighbors(v), p.g.Weights(v)
	_, uTouched := p.lost[u]
	_, vTouched := p.lost[v]
	var sum int64
	for i, j := 0, 0; i < len(nu) && j < len(nv); {
		x := nu[i]
		switch {
		case x < nv[j]:
			i++
			continue
		case x > nv[j]:
			j++
			continue
		}
		i, j = i+1, j+1
		if uTouched && p.gone[pairOf(u, x)] || vTouched && p.gone[pairOf(v, x)] {
			continue
		}
		c := min(wu[i-1], wv[j-1])
		if c >= need-sum {
			return need // saturate: the sum has reached need
		}
		sum += c
	}
	return sum
}

// cutFromAllCuts derives a MinCut-shaped certificate from an
// all-minimum-cuts result: λ plus the first enumerated witness.
func cutFromAllCuts(res *AllCuts) (Cut, bool) {
	if res == nil || !res.Connected || res.Cactus == nil {
		return Cut{}, false
	}
	side := firstMinCut(res, func([]bool) bool { return true })
	if side == nil {
		return Cut{}, false
	}
	return Cut{Value: res.Lambda, Side: side, Exact: true, Algorithm: AlgoParallel}, true
}

// firstMinCut returns a copy of the first minimum cut of res, in
// Cactus.EachMinCut order, whose side satisfies keep, or nil if none
// does.
func firstMinCut(res *AllCuts, keep func(side []bool) bool) []bool {
	var out []bool
	res.Cactus.EachMinCut(func(side []bool) bool {
		if keep(side) {
			out = append([]bool(nil), side...)
			return false
		}
		return true
	})
	return out
}

// solveCtx is Solve with a context: identical dispatch, but the parallel
// solver (the default) aborts at round boundaries when ctx is cancelled.
// The sequential baselines run to completion regardless — they exist for
// comparison, not for serving.
func solveCtx(ctx context.Context, g *graph.Graph, opts Options) (Cut, error) {
	cut := Cut{Algorithm: opts.Algorithm, Exact: opts.Algorithm.Exact()}
	switch opts.Algorithm {
	case AlgoParallel:
		res, err := core.ParallelMinimumCut(ctx, g, core.Options{
			Workers: opts.Workers, Queue: opts.Queue.toPQ(pq.KindBQueue), Bounded: true,
			DisableVieCut: opts.DisableVieCut, Seed: opts.Seed,
		})
		cut.Value, cut.Side = res.Value, res.Side
		if err != nil {
			// The partial result is a valid upper bound, not a minimum;
			// return it for progress reporting, demoted to inexact. It is
			// not cached (certCell drops errored computations).
			cut.Exact = false
			return cut, err
		}
	case AlgoNOI:
		nopts := noi.Options{Queue: opts.Queue.toPQ(pq.KindBStack), Bounded: true, Seed: opts.Seed}
		if !opts.DisableVieCut {
			vc := viecut.Run(g, viecut.Options{Workers: opts.Workers, Seed: opts.Seed})
			nopts.InitialBound, nopts.InitialSide = vc.Value, vc.Side
		}
		res := noi.MinimumCut(g, nopts)
		cut.Value, cut.Side = res.Value, res.Side
	case AlgoNOIUnbounded:
		res := noi.MinimumCut(g, noi.Options{Queue: pq.KindHeap, Bounded: false, Seed: opts.Seed})
		cut.Value, cut.Side = res.Value, res.Side
	case AlgoHaoOrlin:
		cut.Value, cut.Side = flow.HaoOrlin(g)
	case AlgoStoerWagner:
		cut.Value, cut.Side = baseline.StoerWagner(g)
	case AlgoKargerStein:
		trials := opts.Trials
		if trials <= 0 {
			trials = baseline.RecommendedTrials(g.NumVertices())
		}
		cut.Value, cut.Side = baseline.KargerStein(g, trials, opts.Seed)
	case AlgoVieCut:
		res := viecut.Run(g, viecut.Options{Workers: opts.Workers, Seed: opts.Seed})
		cut.Value, cut.Side = res.Value, res.Side
	case AlgoMatula:
		cut.Value, cut.Side = baseline.Matula(g, opts.Epsilon)
	default:
		panic(fmt.Sprintf("mincut: unknown algorithm %d", int(opts.Algorithm)))
	}
	return cut, ctx.Err()
}

// certCell is a lazily-filled, single-flight cache slot. The first
// caller of get computes; concurrent callers wait on the in-flight
// computation. A computation that returns an error (cancellation) is NOT
// cached: its waiters wake, and the next one takes over with its own
// context, so one cancelled request never poisons the cell for others.
type certCell[T any] struct {
	mu       sync.Mutex
	done     bool
	val      T
	inflight chan struct{} // non-nil while someone is computing
}

// get returns the cached value, computing it via compute if absent.
// compute should honor the ctx the caller closed over; waiters honor the
// ctx passed here.
func (c *certCell[T]) get(ctx context.Context, compute func() (T, error)) (T, error) {
	for {
		c.mu.Lock()
		if c.done {
			v := c.val
			c.mu.Unlock()
			return v, nil
		}
		if c.inflight == nil {
			ch := make(chan struct{})
			c.inflight = ch
			c.mu.Unlock()

			v, err := compute()

			c.mu.Lock()
			c.inflight = nil
			if err == nil && !c.done {
				c.done, c.val = true, v
			}
			if c.done {
				// Either our result, or a concurrent seed; serve it.
				v, err = c.val, nil
			}
			c.mu.Unlock()
			close(ch)
			// On error v is the computer's (uncached) partial value —
			// callers may report it as progress but must heed err.
			return v, err
		}
		ch := c.inflight
		c.mu.Unlock()
		select {
		case <-ch:
			// Recheck: success serves the value, failure elects a new
			// computer.
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

// peek returns the cached value without ever computing.
func (c *certCell[T]) peek() (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val, c.done
}

// seed stores v as the cached value if none is cached yet.
func (c *certCell[T]) seed(v T) {
	c.mu.Lock()
	if !c.done {
		c.done, c.val = true, v
	}
	c.mu.Unlock()
}
