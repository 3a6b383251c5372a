package flow

import (
	"context"
	"fmt"

	"repro/internal/graph"
)

// Progressive is the residual network of the Karzanov–Timofeev
// all-minimum-cuts recursion (internal/cactus), built once and shared
// across every step of the recursion. The source is a growing SET of
// vertices (the contracted prefix of the KT adjacency order); absorbing
// a vertex into the source merely drops its conservation constraint, so
// the flow established in earlier steps stays feasible and each step
// only AUGMENTS the shared residual state instead of recomputing a max
// flow from scratch.
//
// Two facts make this sound:
//
//   - after AbsorbSource the previous target joins the source set, and the
//     old flow — which conserved at every vertex outside the old source
//     set and target — still conserves at every vertex outside the new
//     source set; its net value into a fresh target is zero, so the value
//     pushed by MaxFlowTo is exactly the new source-set/target max-flow
//     value;
//   - the caller only cares whether that value equals the global minimum
//     λ, so augmentation aborts as soon as the value exceeds the cap,
//     bounding per-step work by the λ-capped augmentation.
//
// ChainCuts then lists every minimum source-set/target cut. When the
// target is adjacent to the source set (guaranteed by a KT adjacency
// order) and the cut value equals the global minimum, the minimum cuts
// form a nested CHAIN — crossing global minimum cuts induce a circular
// partition whose t-part and s-part carry no joining edge, contradicting
// adjacency — so the residual SCC condensation of the free components is
// a total order and the cuts are read off in one linear sweep, with no
// Picard–Queyranne subset recursion and no deduplication.
//
// Progressive instances are NOT safe for concurrent use, but independent
// instances over the same graph are: the sharded KT enumeration
// (internal/cactus) runs one Progressive per worker, each seeded with a
// different contracted prefix via AbsorbSources, and the per-step cut
// families are identical to the sequential run — the minimum cuts
// between a source set and a target are a property of the graph, not of
// the flow history that certified them.
type Progressive struct {
	nw       *network
	inSource []bool
	sources  []int32

	// Dinic scratch, reused across steps.
	level []int32
	it    []int32
	queue []int32

	// ChainCuts scratch, reused across steps (one KT run calls ChainCuts
	// up to n-1 times; without reuse each call allocates its reachability
	// sets, stack, and emit buffer afresh).
	fromS []bool
	toT   []bool
	stack []int32
	side  []bool
}

// NewProgressive builds the shared residual network of g with root as the
// initial (single-vertex) source set.
func NewProgressive(g *graph.Graph, root int32) *Progressive {
	n := g.NumVertices()
	if root < 0 || int(root) >= n {
		panic(fmt.Sprintf("flow: progressive root %d out of range [0,%d)", root, n))
	}
	p := &Progressive{
		nw:       newNetwork(g),
		inSource: make([]bool, n),
		level:    make([]int32, n),
		it:       make([]int32, n),
		queue:    make([]int32, 0, n),
	}
	p.inSource[root] = true
	p.sources = append(p.sources, root)
	return p
}

// Reset restores p to the state of a fresh NewProgressive(g, root)
// while reusing every allocation — the residual arrays, the Dinic
// scratch, and the ChainCuts buffers. The two residual capacities of an
// arc pair always sum to twice the edge capacity (pushing flow moves
// residual between them), so the zero-flow state is recovered in one
// pass with no reference to the graph. Sharded KT enumeration uses it
// when a worker steals a segment whose prefix is SHORTER than the
// source set it has already absorbed: the worker rewinds its
// Progressive instead of rebuilding the network.
func (p *Progressive) Reset(root int32) {
	res := p.nw.res
	for a := 0; a < len(res); a += 2 {
		half := (res[a] + res[a+1]) / 2
		res[a] = half
		res[a+1] = half
	}
	for i := range p.inSource {
		p.inSource[i] = false
	}
	p.sources = p.sources[:0]
	if root < 0 || int(root) >= p.nw.n {
		panic(fmt.Sprintf("flow: progressive root %d out of range [0,%d)", root, p.nw.n))
	}
	p.inSource[root] = true
	p.sources = append(p.sources, root)
}

// AbsorbSource merges v into the source set (the KT prefix contraction).
// The flow pushed so far remains feasible: conservation was already
// satisfied at every vertex outside the old source set and the old
// target, and absorbing only removes constraints.
func (p *Progressive) AbsorbSource(v int32) {
	if p.inSource[v] {
		return
	}
	p.inSource[v] = true
	p.sources = append(p.sources, v)
}

// AbsorbSources merges every vertex of vs into the source set. It is the
// bulk form of AbsorbSource used by sharded KT enumeration: a worker
// handling steps [lo, hi) of the adjacency order absorbs the whole
// prefix order[1:lo] up front and then steps through its segment exactly
// like the sequential recursion. Absorbing never pushes flow, so a fresh
// Progressive with a pre-absorbed prefix reaches the same per-step
// max-flow values (and therefore the same per-step cut chains) as one
// that augmented its way through the prefix.
func (p *Progressive) AbsorbSources(vs []int32) {
	for _, v := range vs {
		p.AbsorbSource(v)
	}
}

// MaxFlowTo augments the shared residual network toward a maximum flow
// from the source set to t and returns the value pushed, which equals the
// exact source-set/t min-cut value unless it exceeds cap — augmentation
// stops as soon as the value passes cap, and the returned value is then
// only a witness that the min cut is > cap. The partial flow left behind
// by an aborted call is still a feasible flow, so later steps remain
// correct.
//
// A non-nil ctx is checked between Dinic BFS phases; on cancellation the
// call returns ctx.Err() with the residual state still feasible. A
// cancelled step must not be interpreted as a max flow.
func (p *Progressive) MaxFlowTo(ctx context.Context, t int32, cap int64) (int64, error) {
	if p.inSource[t] {
		panic(fmt.Sprintf("flow: progressive target %d is already in the source set", t))
	}
	v := dinicAugment(ctx, p.nw, p.sources, t, cap, p.level, p.it, p.queue)
	if ctx != nil && ctx.Err() != nil {
		return v, ctx.Err()
	}
	return v, nil
}

// ChainCuts lists every minimum source-set/t cut of the current residual
// state as a nested chain, smallest t-side first. emit receives the
// t-side (the side containing t, disjoint from the source set) as a
// reused buffer it must not retain, plus the vertices ADDED to the side
// since the previous emission — nil for the first cut of the chain, the
// members of one residual SCC afterwards (the chain grows monotonically,
// one component per cut). Callers materializing the cuts can therefore
// derive each one incrementally from its predecessor in O(|added|)
// instead of rescanning the whole side; returning false stops early. It
// must be called after MaxFlowTo(t, cap) returned a value ≤ cap (an
// exact max flow). The number of cuts emitted is returned.
//
// An error is returned if the residual structure is not a chain — which
// for a correct KT step (target adjacent to the source set, cut value
// equal to the global minimum λ) certifies an internal inconsistency in
// the caller's cut family, never a benign condition.
func (p *Progressive) ChainCuts(t int32, emit func(tSide []bool, added []int32) bool) (int, error) {
	nw := p.nw
	n := nw.n
	p.fromS, p.stack = nw.reach(p.fromS, p.stack, p.sources, 0)
	fromS := p.fromS
	if fromS[t] {
		return 0, fmt.Errorf("flow: chain extraction with an augmenting path left (flow not maximum)")
	}
	p.toT, p.stack = nw.reach(p.toT, p.stack, []int32{t}, 1)
	toT := p.toT

	scc, nscc := residualSCC(nw)
	state := make([]int8, nscc)
	for v := 0; v < n; v++ {
		switch {
		case fromS[v]:
			state[scc[v]] = sccMandatory
		case toT[v]:
			state[scc[v]] = sccForbidden
		}
	}
	nfree := 0
	for c := 0; c < nscc; c++ {
		if state[c] == sccFree {
			nfree++
		}
	}

	succ, order := freeSCCDAG(nw, scc, state, nscc)
	if len(order) != nfree {
		return 0, fmt.Errorf("flow: residual free components contain a cycle (%d of %d ordered)", len(order), nfree)
	}
	// Chain certification: the free DAG must be a total order, i.e. every
	// consecutive pair in the (then unique) topological order is joined by
	// a direct arc. Any incomparable pair would yield crossing minimum
	// cuts, impossible for a KT step with the target adjacent to the
	// source set.
	for i := 0; i+1 < len(order); i++ {
		direct := false
		for _, d := range succ[order[i]] {
			if d == order[i+1] {
				direct = true
				break
			}
		}
		if !direct {
			return 0, fmt.Errorf("flow: minimum cuts of a KT step do not form a chain (free components %d and %d incomparable)", order[i], order[i+1])
		}
	}

	// Vertices per free SCC, so the sweep below adds each component in
	// O(|component|).
	members := make([][]int32, nscc)
	for v := int32(0); v < int32(n); v++ {
		c := scc[v]
		if state[c] == sccFree {
			members[c] = append(members[c], v)
		}
	}

	// Sweep: t-sides are the forbidden set plus each prefix of the free
	// chain (the s-side is successor-closed, so its complement grows along
	// the topological order).
	if p.side == nil {
		p.side = make([]bool, n)
	}
	side := p.side
	copy(side, toT)
	count := 1
	if !emit(side, nil) {
		return count, nil
	}
	for _, c := range order {
		for _, v := range members[c] {
			side[v] = true
		}
		count++
		if !emit(side, members[c]) {
			return count, nil
		}
	}
	return count, nil
}
