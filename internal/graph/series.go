package graph

import (
	"math"
	"slices"
)

// SeriesMapping is the series reduction: one linear pass that folds every
// maximal chain of g. A chain is a path a–v₁–…–v_k–b whose inner vertices
// v₁…v_k have exactly two neighbours each while its ends a and b do not;
// a = b when the chain is a cycle hanging off one vertex. A chain is read
// from its lower-numbered end (a < b; when a = b, v₁ is the lower of a's
// two chain neighbours), and with v₀ = a and v_{k+1} = b its edges are
// e_i = (v_i, v_{i+1}) for i = 0…k. SeriesMapping returns three things:
//
//   - a contraction M that maps v₁…v_i onto a and v_{i+1}…v_k onto b,
//     where e_i is a lightest chain edge (lowest i on ties), so the chain
//     becomes the single edge e_i between a and b. When a = b every chain
//     vertex maps onto a, and a component that is one cycle maps onto
//     its lowest-numbered vertex, which then plays a = b;
//   - the best candidate cut: the least, over all chains, of the sum of a
//     chain's two lightest edges (math.MaxInt64 when g has no chain);
//   - that candidate's witness: the chain vertices strictly between its
//     two edges, which is a cut of exactly that value.
//
// When no vertex has two neighbours, M is Mapping{NumBlocks: n} with a
// nil Block, and the pass reads xadj and allocates nothing.
//
// Why it is exact: λ(G) = min(candidate, λ(G/M)). M is a contraction, so
// every cut of G/M lifts to a cut of G of the same value, and the
// candidate is a cut of G. Conversely, take a minimum cut of G.
//
//   - If one side holds only chain vertices, it holds some inner vertex
//     of a chain but neither of that chain's ends (on a cycle component,
//     not all of it), so walking the chain from end to end enters and
//     leaves the side: the cut crosses the chain at least twice and is
//     worth at least that chain's candidate.
//   - Otherwise both sides keep a vertex outside the chains. Inner chain
//     vertices have no neighbours off their chain, so each chain can be
//     reassigned on its own, and only its own edges change the cut's
//     value. If a and b are on the same side, move the whole chain to
//     that side, which cuts none of its edges. If they are split, the cut
//     crosses the chain at least once; cut only the lightest chain edge
//     e_i instead. Neither move raises the value, and neither empties a
//     side.
//
// Either way the minimum cut is a candidate or becomes consistent with M.
//
// A solver may contract M together with pairs {x, y} that a CAPFOREST
// scan certified, λ(x, y) ≥ λ̂, where λ̂ is the value of a cut it holds
// and no larger than the candidate. The result stays exact. If
// λ(G) ≥ λ̂, the cut it holds is minimum. If λ(G) < λ̂, every minimum cut
// is below the candidate, so the reassignment above applies and yields a
// minimum cut consistent with M, and no minimum cut separates a certified
// pair.
//
// Each fold is a chain of Padberg–Rinaldi PR2 contractions (see package
// pr), with the candidate standing in for the trivial cuts PR2 excludes.
// The reduction keeps one minimum cut, not the whole family: it merges
// chain vertices that some minimum cuts separate. So it serves the λ
// solvers, but not the all-cuts kernelization or connectivity
// certificates.
func (g *Graph) SeriesMapping() (Mapping, int64, []int32) {
	n := g.NumVertices()
	first := 0
	for first < n && g.xadj[first+1]-g.xadj[first] != 2 {
		first++
	}
	if first == n {
		return Mapping{NumBlocks: n}, math.MaxInt64, nil
	}

	inner := func(v int32) bool { return g.xadj[v+1]-g.xadj[v] == 2 }
	// walk follows the chain from s out through its arc i, appending the
	// vertices it reaches and the weights of the edges it crosses, and
	// stops at the first vertex that is not inner (a chain end) or back at
	// s (a cycle component).
	walk := func(path []int32, w []int64, s int32, i int) ([]int32, []int64) {
		prev := s
		for {
			v := g.adj[i]
			path = append(path, v)
			w = append(w, g.wgt[i])
			if v == s || !inner(v) {
				return path, w
			}
			i = g.xadj[v]
			if g.adj[i] == prev {
				i++
			}
			prev = v
		}
	}

	// into[v] is the vertex v merges onto. Folding a chain maps its inner
	// vertices onto ends that are not inner, except a cycle component's
	// lowest vertex, which the scan has passed by then; so an inner vertex
	// the scan reaches with into[v] == v lies on an unfolded chain.
	into := Identity(n)
	best := int64(math.MaxInt64)
	var witness, path []int32 // path is v₀ … v_{k+1}
	var w []int64             // w[i] is the weight of e_i
	folded := 0
	for s := int32(first); int(s) < n; s++ {
		if !inner(s) || into[s] != s {
			continue
		}
		path, w = walk(path[:0], w[:0], s, g.xadj[s])
		reverseChain(path, w)
		path = append(path, s)
		if path[0] != s {
			path, w = walk(path, w, s, g.xadj[s]+1)
		}
		k := len(path) - 2
		a, b := path[0], path[k+1]
		if a > b || (a == b && path[1] > path[k]) {
			reverseChain(path, w)
			a, b = b, a
		}

		// The two lightest chain edges, lowest index first on ties.
		lo := 0
		for i := range w {
			if w[i] < w[lo] {
				lo = i
			}
		}
		hi := -1
		for i := range w {
			if i != lo && (hi < 0 || w[i] < w[hi]) {
				hi = i
			}
		}
		if cand := w[lo] + w[hi]; cand < best {
			best = cand
			witness = append(witness[:0], path[min(lo, hi)+1:max(lo, hi)+1]...)
		}

		for i := 1; i <= k; i++ {
			if a == b || i <= lo {
				into[path[i]] = a
			} else {
				into[path[i]] = b
			}
		}
		folded += k
	}

	// Number the surviving vertices in order.
	id := make([]int32, n)
	next := int32(0)
	for v, r := range into {
		if r == int32(v) {
			id[v] = next
			next++
		}
	}
	for v, r := range into {
		into[v] = id[r]
	}
	return Mapping{Block: into, NumBlocks: n - folded}, best, witness
}

// ReduceSeries is the series reduction as the λ solvers run it, before
// their first round and after every contraction. g is the solver's
// current contraction of its input, labels maps each input vertex to its
// vertex of g, and (value, side) is the best input cut the solver holds.
// SeriesMapping's candidate replaces that cut when it is strictly below
// value. A fold that leaves at most two vertices is contracted at once
// with ContractParallel(workers), labels are updated in place and a
// two-vertex result's one cut is taken if lighter, which solves a cycle
// or a path without a round; the returned fold is then the identity, with
// a nil Block. Any other fold is returned with g unchanged, for the
// solver's next round to replay into its union-find (UnionBlocks)
// together with the pairs its scan certified, so that each round
// contracts once. SeriesMapping's doc comment proves both exact. It
// returns the graph to go on with, the fold still to contract, and the
// best cut.
func (g *Graph) ReduceSeries(labels []int32, workers int, value int64, side []bool) (*Graph, Mapping, int64, []bool) {
	n := g.NumVertices()
	fold, cand, witness := g.SeriesMapping()
	if cand < value {
		value, side = cand, LiftPrefix(labels, n, witness)
	}
	if fold.NumBlocks == n || fold.NumBlocks > 2 {
		return g, fold, value, side
	}
	g = g.ContractParallel(fold, workers)
	for i := range labels {
		labels[i] = fold.Block[labels[i]]
	}
	if v, d := g.MinDegreeVertex(); g.NumVertices() == 2 && d < value {
		value, side = d, LiftBlock(labels, v)
	}
	return g, Mapping{NumBlocks: g.NumVertices()}, value, side
}

// UnionBlocks calls union(x, y) for every vertex y that m places in the
// block of a lower-numbered vertex x, so that a union-find applying the
// calls merges exactly m's blocks. A solver uses it to contract a fold
// together with the edges a scan certified. It does nothing when
// m.Block is nil.
func (m Mapping) UnionBlocks(union func(x, y int32) bool) {
	if m.Block == nil {
		return
	}
	first := make([]int32, m.NumBlocks)
	for b := range first {
		first[b] = -1
	}
	for v, b := range m.Block {
		if first[b] < 0 {
			first[b] = int32(v)
		} else {
			union(first[b], int32(v))
		}
	}
}

// reverseChain reverses a chain walk's vertices and edge weights
// together.
func reverseChain(path []int32, w []int64) {
	slices.Reverse(path)
	slices.Reverse(w)
}
