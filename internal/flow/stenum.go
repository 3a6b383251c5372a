package flow

import (
	"context"

	"repro/internal/graph"
)

// STEnum enumerates every minimum s-t cut of an undirected graph via the
// correspondence of Picard and Queyranne ("On the structure of all minimum
// cuts in a network", 1980): after a maximum flow is established, the
// s-sides of minimum s-t cuts are exactly the residual-successor-closed
// vertex sets containing s and not t, which factor through the strongly
// connected components of the residual graph. Construction runs one exact
// max flow (Dinic); Enumerate then lists cuts with polynomial delay.
//
// It is the engine of the quadratic reference enumeration that the
// internal/cactus tests check the Karzanov–Timofeev recursion against,
// exported because those tests cannot see this package's test files.
// For arbitrary s-t pairs the number of minimum cuts can be exponential;
// Enumerate's callback can stop early.
type STEnum struct {
	nw    *network
	s, t  int32
	value int64

	// Residual SCC condensation, built lazily on first Enumerate.
	scc      []int32 // vertex -> SCC id
	nscc     int
	prepared bool
	state    []int8 // per SCC: mandatory / forbidden / free
	succ     [][]int32
	order    []int32 // free SCCs in topological order (edges point forward)
}

const (
	sccFree int8 = iota
	sccMandatory
	sccForbidden
)

// NewSTEnum computes a maximum s-t flow of g (Dinic) and returns the
// enumerator. Value is available immediately; Enumerate lists every
// minimum s-t cut. It panics if s or t is not a vertex of g or s == t.
func NewSTEnum(g *graph.Graph, s, t int32) *STEnum {
	nw, v, err := maxFlow(context.Background(), g, s, t)
	if err != nil {
		panic(err)
	}
	return &STEnum{nw: nw, s: s, t: t, value: v}
}

// Value returns the maximum flow value = minimum s-t cut weight.
func (e *STEnum) Value() int64 { return e.value }

// Enumerate calls emit once per distinct minimum s-t cut with the s-side
// of the cut (emit must not retain the slice across calls). Returning
// false from emit stops the enumeration early. The number of emitted cuts
// equals the number of distinct minimum s-t cuts.
func (e *STEnum) Enumerate(emit func(sSide []bool) bool) {
	e.prepare()
	n := e.nw.n
	// Start from the mandatory SCCs; the recursion toggles free ones.
	inCut := make([]bool, e.nscc)
	for c := 0; c < e.nscc; c++ {
		inCut[c] = e.state[int32(c)] == sccMandatory
	}
	side := make([]bool, n)
	emitCurrent := func() bool {
		for v := 0; v < n; v++ {
			side[v] = inCut[e.scc[v]]
		}
		return emit(side)
	}
	// Process free SCCs sinks-first (reverse topological order), so when a
	// node is decided all its successors already are. Including a node is
	// legal iff every free successor is included (mandatory successors
	// always are; forbidden successors cannot occur for free nodes).
	var rec func(i int) bool
	rec = func(i int) bool {
		if i < 0 {
			return emitCurrent()
		}
		c := e.order[i]
		// Branch 1: exclude c (always a valid extension).
		if !rec(i - 1) {
			return false
		}
		// Branch 2: include c if closure allows.
		for _, d := range e.succ[c] {
			if !inCut[d] {
				return true
			}
		}
		inCut[c] = true
		ok := rec(i - 1)
		inCut[c] = false
		return ok
	}
	rec(len(e.order) - 1)
}

// Count returns the number of distinct minimum s-t cuts, capped at limit
// (limit ≤ 0 means no cap). It runs the enumeration without materializing
// sides.
func (e *STEnum) Count(limit int) int {
	e.prepare()
	count := 0
	inCut := make([]bool, e.nscc)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i < 0 {
			count++
			return limit <= 0 || count < limit
		}
		c := e.order[i]
		if !rec(i - 1) {
			return false
		}
		for _, d := range e.succ[c] {
			if !inCut[d] {
				return true
			}
		}
		inCut[c] = true
		ok := rec(i - 1)
		inCut[c] = false
		return ok
	}
	rec(len(e.order) - 1)
	return count
}

// prepare builds the residual SCC condensation and classifies components:
// those residual-reachable from s are in every cut side, those that
// residual-reach t are in none, the rest are free.
func (e *STEnum) prepare() {
	if e.prepared {
		return
	}
	e.prepared = true
	e.scc, e.nscc = residualSCC(e.nw)

	e.state = make([]int8, e.nscc)
	fromS, stack := e.nw.reach(nil, nil, []int32{e.s}, 0)
	toT, _ := e.nw.reach(nil, stack, []int32{e.t}, 1)
	for v := 0; v < e.nw.n; v++ {
		switch {
		case fromS[v]:
			e.state[e.scc[v]] = sccMandatory
		case toT[v]:
			e.state[e.scc[v]] = sccForbidden
		}
	}

	e.succ, e.order = freeSCCDAG(e.nw, e.scc, e.state, e.nscc)
}

// freeSCCDAG builds the successor lists of the free residual SCCs (edges
// into mandatory SCCs are always satisfied; edges into forbidden SCCs
// cannot exist from free SCCs, since reaching a forbidden SCC reaches t)
// and their Kahn topological order. Shared by STEnum.prepare and
// Progressive.ChainCuts so the reference enumeration and the KT chain
// extraction classify the residual structure identically.
func freeSCCDAG(nw *network, scc []int32, state []int8, nscc int) (succ [][]int32, order []int32) {
	seen := make([]int32, nscc)
	for i := range seen {
		seen[i] = -1
	}
	succ = make([][]int32, nscc)
	indeg := make([]int32, nscc)
	for v := int32(0); v < int32(nw.n); v++ {
		cv := scc[v]
		if state[cv] != sccFree {
			continue
		}
		for _, a := range nw.arcs(v) {
			if nw.res[a] <= 0 {
				continue
			}
			cw := scc[nw.head[a]]
			if cw == cv || state[cw] != sccFree || seen[cw] == cv {
				continue
			}
			seen[cw] = cv
			succ[cv] = append(succ[cv], cw)
			indeg[cw]++
		}
	}
	order = make([]int32, 0, nscc)
	for c := int32(0); c < int32(nscc); c++ {
		if state[c] == sccFree && indeg[c] == 0 {
			order = append(order, c)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, d := range succ[order[i]] {
			indeg[d]--
			if indeg[d] == 0 {
				order = append(order, d)
			}
		}
	}
	return succ, order
}

// residualSCC computes the strongly connected components of the residual
// graph (arcs with positive residual capacity) with an iterative Tarjan
// scan. Components are numbered in reverse topological order.
func residualSCC(nw *network) ([]int32, int) {
	n := nw.n
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int32
	next := int32(0)
	nscc := 0

	type frame struct {
		v   int32
		arc int32 // position within nw.arcs(v)
	}
	var frames []frame
	for root := int32(0); root < int32(n); root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: root})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			arcs := nw.arcs(f.v)
			advanced := false
			for f.arc < int32(len(arcs)) {
				a := arcs[f.arc]
				f.arc++
				if nw.res[a] <= 0 {
					continue
				}
				w := nw.head[a]
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(nscc)
					if w == v {
						break
					}
				}
				nscc++
			}
		}
	}
	return comp, nscc
}
