package mincut

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// Apply keeps one pending delta and rebuilds the CSR only before a
// certification probe, before a delete that follows a queued insert, and
// at the end. The tests below pin that rule, check the adjacency-list
// bound that replaces most probes against exact s-t cuts, and check that
// a batch applied at once, one mutation at a time, and on a snapshot
// with no certificates all reach the same graph and certify only what a
// fresh solve confirms.

// warmSnapshot computes both cached certificates of s.
func warmSnapshot(tb testing.TB, s *Snapshot) {
	tb.Helper()
	ctx := context.Background()
	if _, err := s.MinCut(ctx); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.AllMinCuts(ctx); err != nil {
		tb.Fatal(err)
	}
}

// rebuildBound is the most CSR rebuilds a batch may cost: one per probe,
// one per delete that follows an insert, and one at the end.
func rebuildBound(batch []Mutation, r Reused) int {
	bound := r.CertifyCalls + 1
	afterInsert := false
	for _, m := range batch {
		switch {
		case m.U == m.V:
		case m.Op == MutInsert:
			afterInsert = true
		case afterInsert:
			bound++
			afterInsert = false
		}
	}
	return bound
}

// checkCarried checks the certificates ns carries against fresh answers
// on its graph: λ against a fresh solve (and the brute-force oracle when
// n ≤ 16), the witness against λ, and the cactus's cut count against a
// fresh enumeration.
func checkCarried(tb testing.TB, label string, ns *Snapshot) {
	tb.Helper()
	g := ns.Graph()
	if cut, ok := ns.LambdaCached(); ok {
		if want := Solve(g, Options{Seed: 5}).Value; cut.Value != want {
			tb.Fatalf("%s: carried λ=%d, fresh solve %d", label, cut.Value, want)
		}
		if n := g.NumVertices(); n >= 2 && n <= 16 {
			if want, _ := verify.BruteForceMinCut(g); cut.Value != want {
				tb.Fatalf("%s: carried λ=%d, brute force %d", label, cut.Value, want)
			}
		}
		if got := ns.CutValue(cut.Side); got != cut.Value {
			tb.Fatalf("%s: carried witness evaluates to %d, want λ=%d", label, got, cut.Value)
		}
	}
	if ac, ok := ns.CactusCached(); ok {
		fresh, err := AllMinCuts(g, AllCutsOptions{Seed: 5})
		if err != nil {
			tb.Fatal(err)
		}
		if ac.Lambda != fresh.Lambda || ac.Count != fresh.Count {
			tb.Fatalf("%s: carried cactus λ=%d with %d cuts, fresh λ=%d with %d cuts",
				label, ac.Lambda, ac.Count, fresh.Lambda, fresh.Count)
		}
	}
}

// applyThreeWays applies batch to s as one batch, one mutation per
// Apply, and on a certificate-free snapshot of the same graph, and
// checks that the three agree: the same graph, or the same missing-edge
// error at the same mutation. Every certificate any of them carries is
// checked against fresh answers. It returns the batched result.
func applyThreeWays(tb testing.TB, s *Snapshot, batch []Mutation) (*Snapshot, Reused, error) {
	tb.Helper()
	ctx := context.Background()
	ns, r, err := s.Apply(ctx, batch)
	cold, rCold, errCold := NewSnapshot(s.Graph(), s.opts).Apply(ctx, batch)

	seq, failedAt := s, -1
	var errSeq error
	for i, m := range batch {
		next, rOne, err := seq.Apply(ctx, []Mutation{m})
		if err != nil {
			failedAt, errSeq = i, err
			break
		}
		if rOne.Rebuilds > 1 {
			tb.Fatalf("one mutation %+v cost %d rebuilds", m, rOne.Rebuilds)
		}
		seq = next
	}

	if err != nil {
		if errors.Is(err, ErrInvalidMutation) || failedAt < 0 {
			tb.Fatalf("batch failed with %v, one at a time with %v", err, errSeq)
		}
		if want := errMissingEdge(failedAt, batch[failedAt]).Error(); err.Error() != want {
			tb.Fatalf("batch error %q, want %q (one at a time failed at mutation %d: %v)", err, want, failedAt, errSeq)
		}
		if errSeq.Error() != errMissingEdge(0, batch[failedAt]).Error() {
			tb.Fatalf("one at a time: %v", errSeq)
		}
		if errCold == nil || errCold.Error() != err.Error() {
			tb.Fatalf("warm error %q, cold error %v", err, errCold)
		}
		return nil, Reused{}, err
	}
	if errCold != nil || errSeq != nil {
		tb.Fatalf("batch succeeded, cold: %v, one at a time at mutation %d: %v", errCold, failedAt, errSeq)
	}
	if !graph.Equal(ns.Graph(), seq.Graph()) || !graph.Equal(ns.Graph(), cold.Graph()) {
		tb.Fatalf("batch %v: batched, one-at-a-time and cold graphs differ", batch)
	}
	for _, c := range []struct {
		name string
		r    Reused
	}{{"warm", r}, {"cold", rCold}} {
		if bound := rebuildBound(batch, c.r); c.r.Rebuilds > bound {
			tb.Fatalf("%s batch %v: %d rebuilds for %d probes, want at most %d", c.name, batch, c.r.Rebuilds, c.r.CertifyCalls, bound)
		}
	}
	if rCold.Lambda || rCold.Cactus || rCold.CertifyCalls > 0 || rCold.LocalCerts > 0 {
		tb.Fatalf("certificate-free snapshot reported %+v", rCold)
	}
	checkCarried(tb, "batched", ns)
	checkCarried(tb, "one at a time", seq)
	return ns, r, nil
}

// bridgedBicliques builds two K4,4 blocks, {0..3}×{4..7} and
// {8..11}×{12..15}, joined by the unit bridge (0,8): λ = 1. The graph has
// no triangles, so the adjacency-list bound certifies no delete, while
// every block edge has λ(u,v) = 4.
func bridgedBicliques(tb testing.TB) *Graph {
	tb.Helper()
	b := NewBuilder(16)
	for base := int32(0); base < 16; base += 8 {
		for i := base; i < base+4; i++ {
			for j := base + 4; j < base+8; j++ {
				b.AddEdge(i, j, 1)
			}
		}
	}
	b.AddEdge(0, 8, 1)
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestApplyBatchRebuildsBeforeProbes is the known answer for the probe
// path: with certificates warm on two K4,4 joined by a bridge, deleting
// three block edges on disjoint endpoints and re-inserting them finds no
// common neighbour (the bound is 0 < λ+1 = 2), while every endpoint keeps
// c(u)−w = 3 > λ. So each delete runs a probe, all of which certify, and
// the CSR is rebuilt before the second and third probe and once at the
// end.
func TestApplyBatchRebuildsBeforeProbes(t *testing.T) {
	s := NewSnapshot(bridgedBicliques(t), SnapshotOptions{})
	warmSnapshot(t, s)
	batch := []Mutation{
		DeleteEdge(1, 5), DeleteEdge(2, 6), DeleteEdge(9, 13),
		InsertEdge(1, 5, 1), InsertEdge(2, 6, 1), InsertEdge(9, 13, 1),
	}
	ns, r, err := applyThreeWays(t, s, batch)
	if err != nil {
		t.Fatal(err)
	}
	want := Reused{Lambda: true, Cactus: true, CertifyCalls: 3, Rebuilds: 3}
	if r != want {
		t.Fatalf("reused = %+v, want %+v", r, want)
	}
	if !graph.Equal(ns.Graph(), s.Graph()) {
		t.Fatal("deleting and re-inserting the same edges changed the graph")
	}
}

// TestApplySkipsDoomedProbe: in two K4 joined by two bridges (λ = 2), an
// inner edge {2,3} has c(2)−w = 2 ≤ λ, so λ(2,3) < λ+w+1 and no probe
// could certify it. Apply runs none and takes the failed-probe branch:
// with the cactus cached, w = 1 keeps λ and the witness; with λ alone,
// everything is dropped.
func TestApplySkipsDoomedProbe(t *testing.T) {
	ctx := context.Background()
	g := twoCliques(t, 4)
	if ok, err := core.CertifyConnectivity(ctx, g, 2, 3, 4, 0, 1); err != nil || ok {
		t.Fatalf("a probe certified λ(2,3) ≥ 4 (err %v); the skip would lose a certificate", err)
	}
	for _, tc := range []struct {
		name   string
		cactus bool
		want   Reused
	}{
		{"cactus cached", true, Reused{Lambda: true, Rebuilds: 1}},
		{"lambda only", false, Reused{Rebuilds: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSnapshot(g, SnapshotOptions{})
			if _, err := s.MinCut(ctx); err != nil {
				t.Fatal(err)
			}
			if tc.cactus {
				if _, err := s.AllMinCuts(ctx); err != nil {
					t.Fatal(err)
				}
			}
			_, r, err := applyThreeWays(t, s, []Mutation{DeleteEdge(2, 3)})
			if err != nil {
				t.Fatal(err)
			}
			if r != tc.want {
				t.Fatalf("reused = %+v, want %+v", r, tc.want)
			}
		})
	}
}

// TestTriangleBoundSound walks random batches on small weighted graphs
// with a pending delta, rebuilding it before a delete that follows an
// insert, as Apply does, and at random points, as before a probe. At
// every delete it checks the weight and degrees read through the
// pending delta, and its triangle sum, against the graph built cold at
// that position, and that the edge's weight plus that sum never exceeds
// the exact λ(u,v).
func TestTriangleBoundSound(t *testing.T) {
	ctx := context.Background()
	checked := 0
	for trial := 0; trial < 200; trial++ {
		rng := gen.NewRNG(uint64(trial) + 7)
		n := 4 + rng.Intn(9)
		g := gen.GNMWeighted(n, n+rng.Intn(3*n), 4, uint64(trial))
		edges := map[[2]int32]int64{}
		for _, e := range g.Edges() {
			edges[[2]int32{e.U, e.V}] = e.Weight
		}
		pend := newPendingDelta(g)
		for _, m := range randomBatch(rng, g, 24) {
			key := pairOf(m.U, m.V)
			switch {
			case m.U == m.V:
				continue
			case m.Op == MutInsert:
				pend.ins = append(pend.ins, Edge{U: m.U, V: m.V, Weight: m.Weight})
				edges[key] += m.Weight
				continue
			case edges[key] == 0:
				continue // a missing edge, which Apply rejects
			}
			if len(pend.ins) > 0 || rng.Intn(4) == 0 {
				if err := pend.rebuild(); err != nil {
					t.Fatal(err)
				}
			}
			list := make([]Edge, 0, len(edges))
			for p, w := range edges {
				if w > 0 {
					list = append(list, Edge{U: p[0], V: p[1], Weight: w})
				}
			}
			cold := graph.MustFromEdges(n, list)
			w := pend.weight(m.U, m.V)
			if w != edges[key] || pend.degree(m.U) != cold.WeightedDegree(m.U) || pend.degree(m.V) != cold.WeightedDegree(m.V) {
				t.Fatalf("trial %d: pending delta reads c(%d,%d)=%d, c(u)=%d, c(v)=%d; cold graph %d, %d, %d", trial, m.U, m.V,
					w, pend.degree(m.U), pend.degree(m.V), edges[key], cold.WeightedDegree(m.U), cold.WeightedDegree(m.V))
			}
			exact, _, err := flow.MinSTCut(ctx, cold, m.U, m.V)
			if err != nil {
				t.Fatal(err)
			}
			sum := pend.triangles(m.U, m.V, math.MaxInt64)
			if coldSum := newPendingDelta(cold).triangles(m.U, m.V, math.MaxInt64); sum != coldSum {
				t.Fatalf("trial %d: delete (%d,%d): triangle sum %d through the pending delta, %d on the cold graph", trial, m.U, m.V, sum, coldSum)
			}
			if w+sum > exact {
				t.Fatalf("trial %d: delete (%d,%d): bound %d exceeds λ(u,v) = %d", trial, m.U, m.V, w+sum, exact)
			}
			checked++
			pend.remove(m.U, m.V, w)
			edges[key] = 0
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d deletes checked", checked)
	}
}

// bridgedCliques builds two K_k blocks joined by one bridge (0,k) of
// weight w: λ = min(w, k-1), and deleting the bridge disconnects.
func bridgedCliques(tb testing.TB, k int, w int64) *Graph {
	tb.Helper()
	b := NewBuilder(2 * k)
	for base := 0; base < 2*k; base += k {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				b.AddEdge(int32(base+i), int32(base+j), 1)
			}
		}
	}
	b.AddEdge(0, int32(k), w)
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestApplyBatchedSequentialFresh applies batches three ways (at once,
// one mutation at a time, without certificates) and checks every carried
// certificate against fresh answers: first named cases, then random
// walks on small weighted G(n,m) graphs, connected or not, and rings of
// cliques.
func TestApplyBatchedSequentialFresh(t *testing.T) {
	cases := []struct {
		name  string
		g     *Graph
		batch []Mutation
		// lambda is the λ the batched result must carry, or -1 when it
		// need not carry one; fail marks a batch that must fail.
		lambda int64
		fail   bool
	}{
		{"bridge deleted: λ → 0", bridgedCliques(t, 4, 2),
			[]Mutation{DeleteEdge(0, 4)}, 0, false},
		{"bridge deleted among clique edits", bridgedCliques(t, 5, 1),
			[]Mutation{InsertEdge(1, 2, 3), DeleteEdge(6, 7), DeleteEdge(5, 0), DeleteEdge(2, 3)}, 0, false},
		{"delete then reinsert a clique edge", twoCliques(t, 5),
			[]Mutation{DeleteEdge(2, 3), InsertEdge(3, 2, 4)}, 2, false},
		{"delete then reinsert a bridge", twoCliques(t, 5),
			[]Mutation{DeleteEdge(0, 5), InsertEdge(0, 5, 1)}, -1, false},
		{"insert then delete a new pair", twoCliques(t, 5),
			[]Mutation{InsertEdge(2, 7, 1), DeleteEdge(7, 2)}, -1, false},
		{"insert onto an edge then delete it", twoCliques(t, 5),
			[]Mutation{InsertEdge(2, 3, 2), DeleteEdge(2, 3)}, -1, false},
		{"self-loop inserts around a probe", twoCliques(t, 5),
			[]Mutation{InsertEdge(3, 3, 5), DeleteEdge(2, 3), InsertEdge(4, 4, 1), DeleteEdge(6, 8)}, 2, false},
		{"missing edge after a queued insert", twoCliques(t, 5),
			[]Mutation{DeleteEdge(2, 3), InsertEdge(0, 2, 1), DeleteEdge(3, 2)}, -1, true},
		{"absent pair deleted after a queued insert", twoCliques(t, 5),
			[]Mutation{InsertEdge(0, 2, 1), DeleteEdge(1, 7)}, -1, true},
		{"delete of an edge deleted earlier in the batch", twoCliques(t, 5),
			[]Mutation{DeleteEdge(2, 3), DeleteEdge(6, 7), DeleteEdge(3, 2)}, -1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSnapshot(tc.g, SnapshotOptions{})
			warmSnapshot(t, s)
			ns, r, err := applyThreeWays(t, s, tc.batch)
			if tc.fail {
				if err == nil {
					t.Fatal("batch succeeded, want a missing-edge error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.lambda >= 0 {
				cut, ok := ns.LambdaCached()
				if !ok || cut.Value != tc.lambda {
					t.Fatalf("carried λ=%d (ok=%v, reused %+v), want %d", cut.Value, ok, r, tc.lambda)
				}
			}
		})
	}

	for walk := 0; walk < 20; walk++ {
		rng := gen.NewRNG(uint64(walk) + 101)
		g := gen.RingOfCliques(3+walk%4, 4)
		if walk%2 == 0 {
			g = gen.GNMWeighted(6+walk, 2*(6+walk), 4, uint64(walk))
		}
		s := NewSnapshot(g, SnapshotOptions{})
		for step := 0; step < 16; step++ {
			warmSnapshot(t, s)
			batch := randomBatch(rng, s.Graph(), 1+rng.Intn(8))
			ns, _, err := applyThreeWays(t, s, batch)
			if err == nil {
				s = ns
			}
		}
	}
}

// randomBatch draws k mutations against g: deletes of edges present at
// their position, reinserts of edges the batch deleted, inserts of
// random pairs, self-loop inserts and, rarely, a delete of a random
// pair that may be missing.
func randomBatch(rng *gen.RNG, g *Graph, k int) []Mutation {
	n := g.NumVertices()
	live := map[[2]int32]bool{}
	var present, deleted [][2]int32
	add := func(u, v int32) {
		if key := [2]int32{min(u, v), max(u, v)}; !live[key] {
			live[key] = true
			present = append(present, key)
		}
	}
	for _, e := range g.Edges() {
		add(e.U, e.V)
	}
	batch := make([]Mutation, 0, k)
	for len(batch) < k {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		switch r := rng.Intn(20); {
		case r < 8 && len(present) > 0:
			i := rng.Intn(len(present))
			e := present[i]
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
			delete(live, e)
			deleted = append(deleted, e)
			batch = append(batch, DeleteEdge(e[1], e[0]))
		case r < 11 && len(deleted) > 0:
			e := deleted[rng.Intn(len(deleted))]
			add(e[0], e[1])
			batch = append(batch, InsertEdge(e[0], e[1], int64(1+rng.Intn(3))))
		case r == 11:
			batch = append(batch, InsertEdge(u, u, 1))
		case r == 12 && u != v:
			batch = append(batch, DeleteEdge(u, v)) // may be missing
		case r > 12 && u != v:
			add(u, v)
			batch = append(batch, InsertEdge(u, v, int64(1+rng.Intn(3))))
		}
	}
	return batch
}

// FuzzApplyBatch decodes a small weighted graph and a mutation batch and
// applies the batch three ways, with the checks of
// TestApplyBatchedSequentialFresh: the same graph or the same error, and
// every carried certificate confirmed by a fresh solve, the brute-force
// oracle, the witness's value and a fresh enumeration.
func FuzzApplyBatch(f *testing.F) {
	f.Add([]byte{6, 4, 0, 2, 1, 1, 3, 2, 2, 5, 3, 0, 1, 0x80, 1, 2, 0x80, 0, 1, 1})
	f.Add([]byte{8, 0, 0, 4, 0x80, 0, 4, 2, 3, 3, 1, 5, 6, 0x80})
	f.Add([]byte{5, 2, 0, 2, 3, 1, 3, 3, 0, 2, 0x80, 0, 2, 2, 0, 2, 0x80})
	f.Add([]byte{10, 6, 0, 5, 1, 2, 7, 2, 4, 9, 3, 1, 6, 1, 3, 8, 2, 5, 5, 1,
		0, 1, 0x80, 5, 6, 0x80, 0, 1, 2, 9, 9, 1, 3, 4, 0xc0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, batch := decodeApplyBatch(data)
		if g == nil {
			return
		}
		s := NewSnapshot(g, SnapshotOptions{})
		warmSnapshot(t, s)
		applyThreeWays(t, s, batch)
	})
}

// decodeApplyBatch turns fuzz bytes into a graph of 2..13 vertices (a
// cycle plus up to 24 weighted chords) and a batch of up to 16
// mutations. Each mutation takes three bytes u, v, op: op's top bit
// makes it a delete, of (u,v) when bit 6 is set and otherwise of the
// (u·256+v)-th edge present at that point, so most deletes hit an edge;
// op's low two bits give an insert weight of 1..4.
func decodeApplyBatch(data []byte) (*Graph, []Mutation) {
	if len(data) < 2 {
		return nil, nil
	}
	n := 2 + int(data[0])%12
	chords := int(data[1]) % 25
	data = data[2:]
	edges := make([]Edge, 0, n+chords)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{U: int32(i), V: int32((i + 1) % n), Weight: 1})
	}
	for ; chords > 0 && len(data) >= 3; chords-- {
		edges = append(edges, Edge{U: int32(data[0]) % int32(n), V: int32(data[1]) % int32(n), Weight: 1 + int64(data[2]%4)})
		data = data[3:]
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		return nil, nil
	}
	live := g.Edges()
	var batch []Mutation
	for ; len(batch) < 16 && len(data) >= 3; data = data[3:] {
		u, v, op := int32(data[0])%int32(n), int32(data[1])%int32(n), data[2]
		switch {
		case op&0x80 == 0:
			batch = append(batch, InsertEdge(u, v, 1+int64(op%4)))
			if u != v {
				live = append(live, Edge{U: u, V: v})
			}
		case op&0x40 != 0 && u != v:
			batch = append(batch, DeleteEdge(u, v))
		case len(live) > 0:
			i := (int(data[0])<<8 | int(data[1])) % len(live)
			e := live[i]
			live = append(live[:i], live[i+1:]...)
			batch = append(batch, DeleteEdge(e.U, e.V))
		}
	}
	return g, batch
}

// BenchmarkApplyWarmDeletes applies warm batches to the largest
// component of RHG(2¹³, 32, 5, seed 7) (n 8 192, m 130 403) with λ
// cached: k deletes of ordinary edges (both endpoints at or above the
// median degree, as in perfbench's write stream), and 64 [delete e,
// insert e] pairs. It reports the probes and rebuilds per batch.
func BenchmarkApplyWarmDeletes(b *testing.B) {
	g, _ := gen.RHG(1<<13, 32, 5, 7).LargestComponent()
	s := NewSnapshot(g, SnapshotOptions{})
	if _, err := s.MinCut(context.Background()); err != nil {
		b.Fatal(err)
	}
	hist := g.DegreeHistogram()
	median := hist[len(hist)/2]
	var ordinary []Edge
	for _, e := range g.Edges() {
		if min(g.Degree(e.U), g.Degree(e.V)) >= median {
			ordinary = append(ordinary, e)
		}
	}
	rng := gen.NewRNG(3)
	pick := func(k int) []Edge {
		out := make([]Edge, 0, k)
		for _, i := range rng.Perm(len(ordinary))[:k] {
			out = append(out, ordinary[i])
		}
		return out
	}
	run := func(b *testing.B, batch []Mutation) {
		var r Reused
		for i := 0; i < b.N; i++ {
			var err error
			if _, r, err = s.Apply(context.Background(), batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(r.CertifyCalls), "probes/op")
		b.ReportMetric(float64(r.Rebuilds), "rebuilds/op")
	}
	for _, k := range []int{8, 64, 256} {
		var batch []Mutation
		for _, e := range pick(k) {
			batch = append(batch, DeleteEdge(e.U, e.V))
		}
		b.Run(fmt.Sprintf("deletes=%d", k), func(b *testing.B) { run(b, batch) })
	}
	var pairs []Mutation
	for _, e := range pick(64) {
		pairs = append(pairs, DeleteEdge(e.U, e.V), InsertEdge(e.U, e.V, e.Weight))
	}
	b.Run("pairs=64", func(b *testing.B) { run(b, pairs) })
}
