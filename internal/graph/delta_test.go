package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// applyDeltaReference is ApplyDelta as it was before the CSR patch: it
// sends g's m edges through a map lookup into an m-edge list, merges
// the sorted inserts into it, and assembles a fresh CSR. ApplyDelta must
// return byte-identical arrays and identical error strings.
func applyDeltaReference(g *Graph, inserts []Edge, deletes [][2]int32) (*Graph, error) {
	n := g.NumVertices()

	del := make(map[uint64]bool, len(deletes))
	for _, d := range deletes {
		u, v := d[0], d[1]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: delete (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: delete (%d,%d) is a self loop", u, v)
		}
		if u > v {
			u, v = v, u
		}
		key := pairKey(u, v)
		if del[key] {
			return nil, fmt.Errorf("graph: edge (%d,%d) deleted twice", u, v)
		}
		if !g.HasEdge(u, v) {
			return nil, fmt.Errorf("graph: delete (%d,%d): no such edge", u, v)
		}
		del[key] = true
	}

	var insTotal int64
	ins := make([]Edge, 0, len(inserts))
	for _, e := range inserts {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: insert (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("graph: insert (%d,%d) has non-positive weight %d", e.U, e.V, e.Weight)
		}
		if e.U == e.V {
			continue
		}
		if e.Weight > math.MaxInt64-insTotal {
			return nil, errTotalOverflow
		}
		insTotal += e.Weight
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		ins = append(ins, e)
	}
	less := func(a, b Edge) bool { return a.U < b.U || a.U == b.U && a.V < b.V }
	sort.Slice(ins, func(i, j int) bool { return less(ins[i], ins[j]) })
	agg := ins[:0]
	for _, e := range ins {
		if len(agg) > 0 && agg[len(agg)-1].U == e.U && agg[len(agg)-1].V == e.V {
			agg[len(agg)-1].Weight += e.Weight
		} else {
			agg = append(agg, e)
		}
	}

	merged := make([]Edge, 0, g.NumEdges()+len(agg))
	var total int64
	i := 0
	emit := func(e Edge) {
		for i < len(agg) && less(agg[i], e) {
			merged = append(merged, agg[i])
			i++
		}
		if i < len(agg) && agg[i].U == e.U && agg[i].V == e.V {
			e.Weight += agg[i].Weight
			i++
		}
		merged = append(merged, e)
	}
	g.ForEachEdge(func(u, v int32, w int64) {
		if del[pairKey(u, v)] {
			return
		}
		total += w
		emit(Edge{U: u, V: v, Weight: w})
	})
	if insTotal > math.MaxInt64-total {
		return nil, errTotalOverflow
	}
	for ; i < len(agg); i++ {
		merged = append(merged, agg[i])
	}
	return fromSortedEdges(n, merged), nil
}

// checkAgainstReference applies the delta with ApplyDelta and with
// applyDeltaReference and fails unless both return the same error
// string, or byte-identical CSR arrays with neighbour-sorted lists. g
// must come out untouched.
func checkAgainstReference(t *testing.T, g *Graph, inserts []Edge, deletes [][2]int32) {
	t.Helper()
	before := g.Clone()
	got, err := ApplyDelta(g, inserts, deletes)
	want, wantErr := applyDeltaReference(g, inserts, deletes)
	switch {
	case err != nil || wantErr != nil:
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("ApplyDelta error %v, reference error %v (inserts %v, deletes %v)", err, wantErr, inserts, deletes)
		}
	default:
		gc, wc := got.CSR(), want.CSR()
		if !slices.Equal(gc.XAdj, wc.XAdj) || !slices.Equal(gc.Adj, wc.Adj) ||
			!slices.Equal(gc.Wgt, wc.Wgt) || !slices.Equal(gc.Deg, wc.Deg) {
			t.Fatalf("ApplyDelta differs from the reference (inserts %v, deletes %v):\ngot  %+v\nwant %+v", inserts, deletes, gc, wc)
		}
		checkNeighbourSorted(t, "ApplyDelta", got)
	}
	bc, gc := before.CSR(), g.CSR()
	if !slices.Equal(bc.XAdj, gc.XAdj) || !slices.Equal(bc.Adj, gc.Adj) ||
		!slices.Equal(bc.Wgt, gc.Wgt) || !slices.Equal(bc.Deg, gc.Deg) {
		t.Fatal("ApplyDelta mutated its input")
	}
}

// applyDeltaNaive is the oracle: materialize the edge list, apply the
// delta on it, rebuild with FromEdges.
func applyDeltaNaive(t *testing.T, g *Graph, inserts []Edge, deletes [][2]int32) *Graph {
	t.Helper()
	edges := map[[2]int32]int64{}
	g.ForEachEdge(func(u, v int32, w int64) { edges[[2]int32{u, v}] = w })
	for _, d := range deletes {
		u, v := d[0], d[1]
		if u > v {
			u, v = v, u
		}
		delete(edges, [2]int32{u, v})
	}
	var list []Edge
	for k, w := range edges {
		list = append(list, Edge{U: k[0], V: k[1], Weight: w})
	}
	list = append(list, inserts...)
	ng, err := FromEdges(g.NumVertices(), list)
	if err != nil {
		t.Fatalf("oracle rebuild: %v", err)
	}
	return ng
}

func sameGraph(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	same := true
	a.ForEachEdge(func(u, v int32, w int64) {
		if b.EdgeWeight(u, v) != w {
			same = false
		}
	})
	return same
}

// TestApplyDeltaMatchesRebuild checks ApplyDelta on random graphs and
// deltas against the FromEdges oracle and, byte for byte, against the
// reference.
func TestApplyDeltaMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3000; trial++ {
		n := 4 + rng.Intn(12)
		if trial%10 == 0 {
			n = 16 + rng.Intn(48) // long untouched runs between changes
		}
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) > 0 {
					edges = append(edges, Edge{U: int32(u), V: int32(v), Weight: int64(1 + rng.Intn(5))})
				}
			}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}

		// Random delta: delete a subset of existing edges, insert random
		// pairs (possibly parallel to surviving edges, possibly duplicated
		// within the batch, in unsorted order).
		var deletes [][2]int32
		g.ForEachEdge(func(u, v int32, _ int64) {
			if rng.Intn(4) == 0 {
				if rng.Intn(2) == 0 {
					u, v = v, u // exercise orientation normalization
				}
				deletes = append(deletes, [2]int32{u, v})
			}
		})
		var inserts []Edge
		for k := rng.Intn(6); k > 0; k-- {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v {
				continue
			}
			inserts = append(inserts, Edge{U: u, V: v, Weight: int64(1 + rng.Intn(4))})
		}

		checkAgainstReference(t, g, inserts, deletes)
		got, err := ApplyDelta(g, inserts, deletes)
		if err != nil {
			t.Fatalf("trial %d: ApplyDelta: %v", trial, err)
		}
		want := applyDeltaNaive(t, g, inserts, deletes)
		if !sameGraph(got, want) {
			t.Fatalf("trial %d: ApplyDelta disagrees with FromEdges rebuild (n=%d, %d inserts, %d deletes)",
				trial, n, len(inserts), len(deletes))
		}
		// The input must be untouched (immutability).
		if g.NumEdges() != len(edges) {
			t.Fatalf("trial %d: ApplyDelta mutated its input", trial)
		}
	}
}

func TestApplyDeltaReplacesEdge(t *testing.T) {
	g := MustFromEdges(3, []Edge{{U: 0, V: 1, Weight: 5}, {U: 1, V: 2, Weight: 1}})
	ng, err := ApplyDelta(g, []Edge{{U: 0, V: 1, Weight: 2}}, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if w := ng.EdgeWeight(0, 1); w != 2 {
		t.Fatalf("replaced edge weight %d, want 2 (delete must drop the old weight first)", w)
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g := MustFromEdges(3, []Edge{{U: 0, V: 1, Weight: 1}})
	cases := []struct {
		name    string
		inserts []Edge
		deletes [][2]int32
	}{
		{"delete missing edge", nil, [][2]int32{{1, 2}}},
		{"delete twice", nil, [][2]int32{{0, 1}, {1, 0}}},
		{"delete self loop", nil, [][2]int32{{1, 1}}},
		{"delete out of range", nil, [][2]int32{{0, 3}}},
		{"insert zero weight", []Edge{{U: 1, V: 2, Weight: 0}}, nil},
		{"insert out of range", []Edge{{U: 1, V: 5, Weight: 1}}, nil},
	}
	for _, tc := range cases {
		if _, err := ApplyDelta(g, tc.inserts, tc.deletes); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		checkAgainstReference(t, g, tc.inserts, tc.deletes)
	}
}

// FuzzApplyDelta decodes a graph of up to 15 vertices and a delta, valid
// or not, and checks ApplyDelta against the reference: byte-identical
// CSR arrays or the same error string.
func FuzzApplyDelta(f *testing.F) {
	// The path 0-1-2-3-4 (weights 2..5) and the chord 1-3 (weight 6).
	path := []byte{5, 5, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 1, 3, 5}
	seed := func(ops ...byte) []byte { return append(append([]byte(nil), path...), ops...) }
	f.Add(seed())                                                 // empty delta: one untouched block
	f.Add(seed(2, 0, 0xc0))                                       // every arc of vertex 2 deleted
	f.Add(seed(1, 2, 0x40, 1, 2, 0x03))                           // delete plus reinsert
	f.Add(seed(3, 1, 0x02, 1, 3, 0x01))                           // insert onto an existing pair, twice
	f.Add(seed(0, 4, 0x01, 0, 1, 0x40))                           // the first and last vertex
	f.Add([]byte{9, 1, 2, 3, 1, 7, 8, 1, 0, 8, 0x02, 5, 6, 0x04}) // isolated vertices
	f.Add(seed(0, 2, 0x08, 1, 4, 0x09))                           // inserts whose total overflows
	f.Add(seed(0, 1, 0x40, 1, 0, 0x40))                           // the same edge deleted twice
	f.Add(seed(0, 2, 0x40, 2, 2, 0x40))                           // a missing edge and a self loop
	f.Add(seed(0xf0, 1, 0x21, 1, 0xfe, 0x60))                     // out-of-range ids
	f.Add(seed(0, 0, 0x80, 0, 3, 0x80, 2, 2, 0x00))               // deletes by index, a zero-weight loop
	f.Fuzz(func(t *testing.T, data []byte) {
		g, inserts, deletes := decodeDelta(data)
		if g == nil {
			return
		}
		checkAgainstReference(t, g, inserts, deletes)
	})
}

// decodeDelta turns fuzz bytes into a graph and a delta. data[0] gives
// n ≤ 15 and data[1] the number of edges, three bytes each (u, v and a
// weight of 1..8). Each delta op takes three bytes a, b, op. op's top two
// bits choose an insert (00), a delete of the pair (01), a delete of the
// (a·256+b)-th edge of g (10), or deletes of every edge at a (11). Bit
// 0x20 takes a and b as raw signed ids, so they may fall outside [0,n);
// for inserts the low three bits give the weight (0 is invalid), and bit
// 0x08 adds math.MaxInt64-8, so that totals overflow.
func decodeDelta(data []byte) (*Graph, []Edge, [][2]int32) {
	if len(data) < 2 {
		return nil, nil, nil
	}
	n := int(data[0]) % 16
	m := int(data[1]) % 40
	data = data[2:]
	vert := func(x byte) int32 {
		if n == 0 {
			return 0
		}
		return int32(x) % int32(n)
	}
	var edges []Edge
	for ; m > 0 && len(data) >= 3; m-- {
		edges = append(edges, Edge{U: vert(data[0]), V: vert(data[1]), Weight: 1 + int64(data[2]%8)})
		data = data[3:]
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		return nil, nil, nil
	}
	live := g.Edges()
	var inserts []Edge
	var deletes [][2]int32
	for ; len(data) >= 3; data = data[3:] {
		a, b, op := data[0], data[1], data[2]
		u, v := vert(a), vert(b)
		if op&0x20 != 0 {
			u, v = int32(int8(a)), int32(int8(b))
		}
		switch op >> 6 {
		case 0:
			w := int64(op & 0x07)
			if op&0x08 != 0 {
				w += math.MaxInt64 - 8
			}
			inserts = append(inserts, Edge{U: u, V: v, Weight: w})
		case 1:
			deletes = append(deletes, [2]int32{u, v})
		case 2:
			if len(live) > 0 {
				e := live[(int(a)<<8|int(b))%len(live)]
				deletes = append(deletes, [2]int32{e.V, e.U})
			}
		case 3:
			for _, e := range live {
				if e.U == vert(a) || e.V == vert(a) {
					deletes = append(deletes, [2]int32{e.U, e.V})
				}
			}
		}
	}
	return g, inserts, deletes
}
