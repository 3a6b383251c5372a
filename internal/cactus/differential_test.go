package cactus

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// This file is the differential harness of the all-minimum-cuts
// subsystem. Three independent implementations are compared:
//
//   - the Karzanov–Timofeev enumeration (ktEnumerate, what AllMinCuts
//     runs);
//   - the per-vertex Picard–Queyranne enumeration (enumerateQuadratic,
//     the reference in quadratic_test.go);
//   - the branch-and-bound oracle (verify.AllMinimumCuts, n ≤ 16 here).
//
// TestDifferentialKTvsQuadratic alone sweeps well over 1000 instances —
// random unit and weighted graphs, cycles with chords, clique chains,
// stars of cycles and cactus-shaped graphs — and the remaining tests add
// structured and ablation coverage on the KT pipeline.

// checkKTvsQuadratic runs the pipeline with both enumerators and fails
// unless they agree cut-for-cut and on the cactus shape — the KT result
// is built by the chain merge, the quadratic one by the bit-matrix
// reference, and a family has one cactus in normal form; both cactuses
// must validate and re-encode the same number of cuts. Returns the KT
// result for further checks.
func checkKTvsQuadratic(t *testing.T, g *graph.Graph, seed uint64) *Result {
	t.Helper()
	kt := mustAll(t, g, Options{Seed: seed})
	quad := mustAllWith(t, g, Options{Seed: seed}, enumerateQuadratic)
	if kt.Lambda != quad.Lambda {
		t.Fatalf("λ: KT %d, quadratic %d", kt.Lambda, quad.Lambda)
	}
	if kt.Count != quad.Count {
		t.Fatalf("cuts: KT %d, quadratic %d (λ=%d, n=%d)", kt.Count, quad.Count, kt.Lambda, g.NumVertices())
	}
	// Both materialize in the same canonical order, so the lists must be
	// identical element-wise.
	for i := range kt.Cuts {
		for v := range kt.Cuts[i] {
			if kt.Cuts[i][v] != quad.Cuts[i][v] {
				t.Fatalf("cut %d differs between KT and quadratic", i)
			}
		}
	}
	for name, res := range map[string]*Result{"KT": kt, "quadratic": quad} {
		if res.Cactus == nil {
			t.Fatalf("%s: nil cactus", name)
		}
		if err := res.Cactus.Validate(g); err != nil {
			t.Fatalf("%s cactus invalid: %v", name, err)
		}
		if got := res.Cactus.CountCuts(); got != res.Count {
			t.Fatalf("%s cactus encodes %d cuts, enumeration found %d", name, got, res.Count)
		}
	}
	if err := sameShape(kt.Cactus, quad.Cactus); err != nil {
		t.Fatalf("chain merge vs matrix reference (λ=%d, n=%d): %v", kt.Lambda, g.NumVertices(), err)
	}
	return kt
}

// sameShape reports whether two cactuses of one cut family agree on
// their node, cycle and tree-edge counts.
func sameShape(a, b *Cactus) error {
	if a.NumNodes != b.NumNodes || a.NumCycles != b.NumCycles || a.NumTreeEdges() != b.NumTreeEdges() {
		return fmt.Errorf("cactus %v vs %v", a, b)
	}
	return nil
}

// TestDifferentialKTvsQuadratic is the scaled-up sweep: 1000+ instances
// across every family the cactus machinery is sensitive to, each run
// through both enumerators; instances small enough for the oracle are
// additionally checked cut-for-cut against it.
func TestDifferentialKTvsQuadratic(t *testing.T) {
	seeds := uint64(90)
	if testing.Short() {
		seeds = 8
	}
	count := 0
	run := func(g *graph.Graph, seed uint64) {
		t.Helper()
		res := checkKTvsQuadratic(t, g, seed)
		if g.NumVertices() <= 16 {
			checkResult(t, g, res)
		}
		count++
	}

	// Random unit-weight graphs up to the new oracle ceiling n = 16.
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, n := range []int{4, 7, 10, 13, 16} {
			m := n - 1 + int(seed%uint64(2*n))
			run(gen.ConnectedGNM(n, m, seed*131+uint64(n)), seed)
		}
	}
	// Random weighted graphs: ties across non-isomorphic cuts and
	// frequent crossing structure.
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, n := range []int{5, 8, 11, 14, 16} {
			m := n + int(seed%uint64(n))
			g := gen.GNMWeighted(n, m, 3, seed*977+uint64(n))
			if !g.IsConnected() {
				g, _ = g.LargestComponent()
			}
			if g.NumVertices() < 2 {
				continue
			}
			run(g, seed)
		}
	}
	// Cycles: pure rings (the Θ(n²)-cut worst case) and rings with random
	// heavy chords (partial circular partitions).
	for n := 3; n <= 16; n++ {
		run(gen.Ring(n), uint64(n))
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		n := 6 + int(seed%9)
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddEdge(int32(i), int32((i+1)%n), 1)
		}
		rng := gen.NewRNG(seed * 31)
		for c := 0; c < int(seed%4); c++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v, 2)
			}
		}
		run(b.MustBuild(), seed)
	}
	// Clique chains: kernel-heavy, laminar cactus (a path). Deterministic
	// shapes plus randomly weighted bridges.
	for _, blocks := range []int{2, 3, 4} {
		for _, size := range []int{3, 4} {
			run(gen.CliqueChain(blocks, size), uint64(blocks*10+size))
		}
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		blocks, size := 2+int(seed%3), 3+int(seed%2)
		base := gen.CliqueChain(blocks, size)
		rng := gen.NewRNG(seed * 71)
		b := graph.NewBuilder(base.NumVertices())
		base.ForEachEdge(func(u, v int32, w int64) {
			// Re-weight intra-clique edges; bridges stay the minimum.
			if u/int32(size) == v/int32(size) {
				w = 2 + rng.Int63n(3)
			}
			b.AddEdge(u, v, w)
		})
		run(b.MustBuild(), seed)
	}
	// Stars of cycles: many cycles glued at one node, cuts realized by
	// several edge-pair removals.
	for _, arms := range []int{2, 3, 4} {
		for _, armLen := range []int{2, 3, 4} {
			g := gen.StarOfCycles(arms, armLen)
			if g.NumVertices() <= 16 {
				run(g, uint64(arms*10+armLen))
			} else {
				checkKTvsQuadratic(t, g, uint64(arms*10+armLen))
				count++
			}
		}
	}
	// Cactus-shaped families: random cacti blown up into cliques, whose
	// cycles and stars the merge reopens (rules (b) and (c)) under every
	// adjacency order the permuted ids produce.
	shaped := 300
	if testing.Short() {
		shaped = 30
	}
	for seed, added := uint64(1), 0; added < shaped; seed++ {
		if g := cactusShaped(seed, 16); g != nil {
			run(g, seed)
			added++
		}
	}
	// Larger KT-vs-quadratic-only instances beyond the oracle.
	for seed := uint64(1); seed <= seeds/2; seed++ {
		run(gen.ConnectedGNM(24+int(seed%10), 50+int(seed%20), seed*59), seed)
		checkKTvsQuadratic(t, gen.StarOfCycles(3, 6), seed)
		count++
	}

	if !testing.Short() && count < 1000 {
		t.Fatalf("differential sweep ran only %d instances, want ≥ 1000", count)
	}
	t.Logf("differentially verified %d instances (KT vs quadratic%s)", count,
		map[bool]string{true: "", false: " vs oracle where n ≤ 16"}[testing.Short()])
}

// cactusShaped returns a random graph whose minimum cuts are those of a
// random cactus, or nil when it would exceed maxN vertices. It grows 1–5
// structures, each a tree edge (40 %) or a cycle of 3–6 nodes, hung on a
// random existing node; blows every node up into a clique of 1–3
// vertices joined by weight-4 edges; realizes tree edges with weight 2
// and cycle edges with weight 1 between random members; and permutes the
// vertex ids. λ = 2: cutting a clique costs at least 4, and a cut of the
// cactus crosses one tree edge or two edges of one cycle.
func cactusShaped(seed uint64, maxN int) *graph.Graph {
	rng := gen.NewRNG(seed)
	type link struct {
		a, b int
		w    int64
	}
	var links []link
	nodes := 1
	for s, k := 0, 1+rng.Intn(5); s < k; s++ {
		at := rng.Intn(nodes)
		if rng.Intn(10) < 4 {
			links = append(links, link{at, nodes, 2})
			nodes++
			continue
		}
		prev := at
		for i, l := 1, 3+rng.Intn(4); i < l; i++ {
			links = append(links, link{prev, nodes, 1})
			prev = nodes
			nodes++
		}
		links = append(links, link{prev, at, 1})
	}
	size, first, n := make([]int, nodes), make([]int, nodes), 0
	for x := range size {
		size[x], first[x] = 1+rng.Intn(3), n
		n += size[x]
	}
	if n > maxN {
		return nil
	}
	perm := rng.Perm(n)
	b := graph.NewBuilder(n)
	for x := range size {
		for i := 0; i < size[x]; i++ {
			for j := i + 1; j < size[x]; j++ {
				b.AddEdge(perm[first[x]+i], perm[first[x]+j], 4)
			}
		}
	}
	member := func(x int) int32 { return perm[first[x]+rng.Intn(size[x])] }
	for _, l := range links {
		b.AddEdge(member(l.a), member(l.b), l.w)
	}
	return b.MustBuild()
}

// TestDifferentialRandomUnit cross-checks the KT pipeline against the
// exhaustive oracle on random connected unit-weight graphs.
func TestDifferentialRandomUnit(t *testing.T) {
	count := 0
	for seed := uint64(1); seed <= 60; seed++ {
		for _, n := range []int{4, 7, 10, 12, 15} {
			m := n - 1 + int(seed%uint64(2*n))
			g := gen.ConnectedGNM(n, m, seed*131+uint64(n))
			res := mustAll(t, g, Options{Seed: seed})
			checkResult(t, g, res)
			count++
		}
	}
	t.Logf("verified %d random unit-weight graphs", count)
}

// TestDifferentialRandomWeighted uses small integer weights, which yield
// richer minimum-cut families (ties across non-isomorphic cuts) and
// frequent crossing structure.
func TestDifferentialRandomWeighted(t *testing.T) {
	count := 0
	for seed := uint64(1); seed <= 60; seed++ {
		for _, n := range []int{5, 8, 11, 16} {
			m := n + int(seed%uint64(n))
			g := gen.GNMWeighted(n, m, 3, seed*977+uint64(n))
			if !g.IsConnected() {
				g, _ = g.LargestComponent()
			}
			if g.NumVertices() < 2 {
				continue
			}
			res := mustAll(t, g, Options{Seed: seed})
			checkResult(t, g, res)
			count++
		}
	}
	t.Logf("verified %d random weighted graphs", count)
}

// TestDifferentialStructured stresses the circular-partition machinery
// with cycle-like and clustered topologies where crossing cuts dominate.
func TestDifferentialStructured(t *testing.T) {
	count := 0
	// Rings with random chords of weight 2: the ring cuts stay minimal
	// only where no chord crosses, producing partial circular partitions.
	for seed := uint64(1); seed <= 30; seed++ {
		n := 6 + int(seed%7)
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddEdge(int32(i), int32((i+1)%n), 1)
		}
		rng := gen.NewRNG(seed * 31)
		for c := 0; c < int(seed%3); c++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v, 2)
			}
		}
		g := b.MustBuild()
		res := mustAll(t, g, Options{Seed: seed})
		checkResult(t, g, res)
		count++
	}
	// Two planted communities with a few crossing edges.
	for seed := uint64(1); seed <= 30; seed++ {
		g, _ := gen.PlantedCut(5, 6, 9, 2+int(seed%3), seed*7)
		if !g.IsConnected() {
			continue
		}
		res := mustAll(t, g, Options{Seed: seed})
		checkResult(t, g, res)
		count++
	}
	// Watts–Strogatz ringish small worlds.
	for seed := uint64(1); seed <= 20; seed++ {
		g := gen.WattsStrogatz(10, 2, 0.3, seed*13)
		if !g.IsConnected() {
			continue
		}
		res := mustAll(t, g, Options{Seed: seed})
		checkResult(t, g, res)
		count++
	}
	t.Logf("verified %d structured graphs", count)
}

// TestDifferentialKernelAblation checks that the kernelized and
// non-kernelized paths agree cut-for-cut on graphs where the kernel
// actually contracts something, for both enumerators.
func TestDifferentialKernelAblation(t *testing.T) {
	for _, e := range enumerators {
		for seed := uint64(1); seed <= 25; seed++ {
			n := 6 + int(seed%6)
			g := gen.ConnectedGNM(n, 2*n, seed*59)
			a := mustAllWith(t, g, Options{Seed: seed}, e.enumerate)
			b := mustAllWith(t, g, Options{Seed: seed, DisableKernel: true}, e.enumerate)
			if a.Lambda != b.Lambda || a.NumCuts() != b.NumCuts() {
				t.Fatalf("%s seed %d: kernel λ=%d #%d vs direct λ=%d #%d",
					e.name, seed, a.Lambda, a.NumCuts(), b.Lambda, b.NumCuts())
			}
			for i := range a.Cuts {
				for v := range a.Cuts[i] {
					if a.Cuts[i][v] != b.Cuts[i][v] {
						t.Fatalf("%s seed %d: cut %d differs between kernel and direct paths", e.name, seed, i)
					}
				}
			}
		}
	}
}
