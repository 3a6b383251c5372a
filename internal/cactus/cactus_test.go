package cactus

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

func mustAll(t *testing.T, g *graph.Graph, opts Options) *Result {
	t.Helper()
	res, err := AllMinCuts(context.Background(), g, opts)
	if err != nil {
		t.Fatalf("AllMinCuts: %v", err)
	}
	return res
}

// checkResult validates the full contract on a small graph: cut list
// matches the brute-force oracle, every witness evaluates to λ, and the
// cactus both validates structurally and re-encodes exactly the cut set.
func checkResult(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	wantVal, wantMasks := verify.AllMinimumCuts(g)
	if res.Lambda != wantVal {
		t.Fatalf("λ = %d, oracle %d", res.Lambda, wantVal)
	}
	gotMasks := map[uint32]bool{}
	for _, side := range res.Cuts {
		if side[0] {
			t.Fatalf("cut side not canonical: vertex 0 on true side")
		}
		if err := verify.ValidateWitness(g, side, res.Lambda); err != nil {
			t.Fatalf("invalid witness: %v", err)
		}
		gotMasks[verify.CanonicalMask(side)] = true
	}
	if len(gotMasks) != len(res.Cuts) {
		t.Fatalf("duplicate cuts in result: %d sides, %d distinct", len(res.Cuts), len(gotMasks))
	}
	if len(gotMasks) != len(wantMasks) {
		t.Fatalf("found %d cuts, oracle %d", len(gotMasks), len(wantMasks))
	}
	for _, m := range wantMasks {
		if !gotMasks[m] {
			t.Fatalf("oracle cut %x missing from result", m)
		}
	}
	if res.Cactus == nil {
		t.Fatal("nil cactus for connected graph")
	}
	if err := res.Cactus.Validate(g); err != nil {
		t.Fatalf("cactus invalid: %v", err)
	}
	cactusMasks := map[uint32]bool{}
	res.Cactus.EachMinCut(func(side []bool) bool {
		cactusMasks[verify.CanonicalMask(side)] = true
		return true
	})
	if len(cactusMasks) != len(wantMasks) {
		t.Fatalf("cactus encodes %d cuts, oracle %d", len(cactusMasks), len(wantMasks))
	}
	for _, m := range wantMasks {
		if !cactusMasks[m] {
			t.Fatalf("oracle cut %x missing from cactus", m)
		}
	}
}

func TestRingAllCuts(t *testing.T) {
	// The n-cycle has λ=2 and exactly n(n-1)/2 minimum cuts (any two
	// edges); its cactus is the n-cycle itself.
	for _, n := range []int{4, 5, 6, 8, 11} {
		g := gen.Ring(n)
		res := mustAll(t, g, Options{})
		checkResult(t, g, res)
		if want := n * (n - 1) / 2; res.NumCuts() != want {
			t.Fatalf("C_%d: %d cuts, want %d", n, res.NumCuts(), want)
		}
		c := res.Cactus
		if c.NumCycles != 1 || c.NumTreeEdges() != 0 || c.NumNodes != n {
			t.Fatalf("C_%d cactus: %v, want one %d-cycle", n, c, n)
		}
		for _, e := range c.Edges {
			if e.Weight != 1 {
				t.Fatalf("C_%d cycle edge weight %d, want λ/2 = 1", n, e.Weight)
			}
		}
	}
}

func TestLargeRingAllCuts(t *testing.T) {
	// C_30 is beyond the exhaustive oracle but has a known answer: 435
	// cuts forming a single 30-part circular partition. Exercises the
	// crossing-class machinery at a size where signatures span multiple
	// bitset words.
	g := gen.Ring(30)
	res := mustAll(t, g, Options{})
	if res.Lambda != 2 || res.NumCuts() != 30*29/2 {
		t.Fatalf("C_30: λ=%d cuts=%d, want 2 and 435", res.Lambda, res.NumCuts())
	}
	c := res.Cactus
	if c.NumCycles != 1 || c.NumNodes != 30 || c.NumTreeEdges() != 0 {
		t.Fatalf("C_30 cactus %v, want one 30-cycle", c)
	}
	if err := c.Validate(g); err != nil {
		t.Fatalf("cactus invalid: %v", err)
	}
}

func TestTriangleAllCuts(t *testing.T) {
	// K_3 = C_3: three singleton cuts, none crossing (crossing needs four
	// parts), so a valid cactus may represent them with tree edges.
	g := gen.Ring(3)
	res := mustAll(t, g, Options{})
	checkResult(t, g, res)
	if res.NumCuts() != 3 {
		t.Fatalf("triangle: %d cuts, want 3", res.NumCuts())
	}
}

func TestPathAllCuts(t *testing.T) {
	// The unit path has λ=1 and one cut per edge; the cactus is a path.
	for _, n := range []int{2, 3, 7, 12} {
		g := gen.Path(n)
		res := mustAll(t, g, Options{})
		checkResult(t, g, res)
		if res.NumCuts() != n-1 {
			t.Fatalf("P_%d: %d cuts, want %d", n, res.NumCuts(), n-1)
		}
		c := res.Cactus
		if c.NumCycles != 0 || c.NumTreeEdges() != n-1 || c.NumNodes != n {
			t.Fatalf("P_%d cactus: %v, want a path of %d tree edges", n, c, n-1)
		}
	}
}

func TestWeightedTreeMinEdgeClasses(t *testing.T) {
	// A weighted tree: one minimum cut per minimum-weight edge.
	//      0 -2- 1 -1- 2
	//            |
	//            3 (weight 1) -5- 4
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(3, 4, 5)
	g := b.MustBuild()
	res := mustAll(t, g, Options{})
	checkResult(t, g, res)
	if res.Lambda != 1 || res.NumCuts() != 2 {
		t.Fatalf("λ=%d cuts=%d, want λ=1 with 2 cuts (the two weight-1 edges)", res.Lambda, res.NumCuts())
	}
}

func TestStarAllCuts(t *testing.T) {
	g := gen.Star(7)
	res := mustAll(t, g, Options{})
	checkResult(t, g, res)
	if res.NumCuts() != 6 {
		t.Fatalf("star: %d cuts, want 6", res.NumCuts())
	}
}

func TestCompleteAllCuts(t *testing.T) {
	// K_n (n ≥ 4): λ = n-1, minimum cuts = the n singletons.
	for _, n := range []int{4, 5, 6} {
		g := gen.Complete(n)
		res := mustAll(t, g, Options{})
		checkResult(t, g, res)
		if res.NumCuts() != n {
			t.Fatalf("K_%d: %d cuts, want %d", n, res.NumCuts(), n)
		}
	}
}

func TestDumbbellNestedCuts(t *testing.T) {
	// Two K_4 blocks joined by a single edge: unique minimum cut (the
	// bridge), cactus = two nodes and one tree edge.
	b := graph.NewBuilder(8)
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j, 1)
			b.AddEdge(i+4, j+4, 1)
		}
	}
	b.AddEdge(0, 4, 1)
	g := b.MustBuild()
	res := mustAll(t, g, Options{})
	checkResult(t, g, res)
	if res.Lambda != 1 || res.NumCuts() != 1 {
		t.Fatalf("dumbbell: λ=%d cuts=%d, want λ=1 with 1 cut", res.Lambda, res.NumCuts())
	}
	if c := res.Cactus; c.NumNodes != 2 || c.NumTreeEdges() != 1 {
		t.Fatalf("dumbbell cactus %v, want 2 nodes 1 tree edge", res.Cactus)
	}
}

func TestCycleOfBlobsKernelizes(t *testing.T) {
	// A ring of 5 K_4 blobs, consecutive blobs joined by two unit edges:
	// every ring boundary has weight 2, so λ=4 and the minimum cuts are
	// exactly the C(5,2) pairs of boundaries. The kernel must contract
	// each blob to one vertex and the cactus is a 5-cycle of weight-2
	// edges.
	const blobs, bs = 5, 4
	b := graph.NewBuilder(blobs * bs)
	id := func(blob, i int) int32 { return int32(blob*bs + i) }
	for blob := 0; blob < blobs; blob++ {
		for i := 0; i < bs; i++ {
			for j := i + 1; j < bs; j++ {
				b.AddEdge(id(blob, i), id(blob, j), 3)
			}
		}
		next := (blob + 1) % blobs
		b.AddEdge(id(blob, 0), id(next, 1), 1)
		b.AddEdge(id(blob, 2), id(next, 3), 1)
	}
	g := b.MustBuild()
	res := mustAll(t, g, Options{})
	if res.Lambda != 4 {
		t.Fatalf("λ = %d, want 4", res.Lambda)
	}
	if want := blobs * (blobs - 1) / 2; res.NumCuts() != want {
		t.Fatalf("%d cuts, want %d", res.NumCuts(), want)
	}
	if res.KernelVertices != blobs {
		t.Errorf("kernel has %d vertices, want %d (one per blob)", res.KernelVertices, blobs)
	}
	if c := res.Cactus; c.NumCycles != 1 || c.NumNodes != blobs {
		t.Fatalf("cactus %v, want one %d-cycle", res.Cactus, blobs)
	}
	if err := res.Cactus.Validate(g); err != nil {
		t.Fatalf("cactus invalid: %v", err)
	}
	for _, e := range res.Cactus.Edges {
		if e.Weight != 2 {
			t.Fatalf("cycle edge weight %d, want λ/2 = 2", e.Weight)
		}
	}
	for _, side := range res.Cuts {
		if err := verify.ValidateWitness(g, side, 4); err != nil {
			t.Fatalf("invalid witness: %v", err)
		}
	}
}

func TestTwoCyclesSharingVertex(t *testing.T) {
	// A C_5 and a C_4 glued at vertex 0 (figure eight): λ=2, and the
	// minimum cuts are exactly the edge pairs within one cycle —
	// C(5,2) + C(4,2) = 16. The cactus is two cycles sharing a node; the
	// shared node makes several cuts realizable by more than one edge
	// pair, exercising EachMinCut's deduplication.
	b := graph.NewBuilder(8)
	for i := 0; i < 4; i++ { // 0-1-2-3-4-0
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	b.AddEdge(4, 0, 1)
	b.AddEdge(0, 5, 1) // 0-5-6-7-0
	b.AddEdge(5, 6, 1)
	b.AddEdge(6, 7, 1)
	b.AddEdge(7, 0, 1)
	g := b.MustBuild()
	for _, e := range enumerators {
		res := mustAllWith(t, g, Options{}, e.enumerate)
		checkResult(t, g, res)
		if res.Lambda != 2 || res.Count != 16 {
			t.Fatalf("%s: λ=%d cuts=%d, want 2 and 16", e.name, res.Lambda, res.Count)
		}
		c := res.Cactus
		if c.NumCycles != 2 || c.NumNodes != 8 || c.NumTreeEdges() != 0 {
			t.Fatalf("%s cactus %v, want two cycles over 8 nodes", e.name, c)
		}
	}
}

func TestPathOfBridges(t *testing.T) {
	// A long path is all bridges: n-1 nested cuts, a pure laminar chain —
	// the KT recursion produces one single-cut chain per step. Beyond the
	// oracle ceiling, so checked structurally and differentially.
	const n = 48
	g := gen.Path(n)
	res := checkKTvsQuadratic(t, g, 1)
	if res.Lambda != 1 || res.Count != n-1 {
		t.Fatalf("P_%d: λ=%d cuts=%d, want 1 and %d", n, res.Lambda, res.Count, n-1)
	}
	c := res.Cactus
	if c.NumCycles != 0 || c.NumTreeEdges() != n-1 || c.NumNodes != n {
		t.Fatalf("P_%d cactus %v, want a path of %d tree edges", n, c, n-1)
	}
}

func TestCactusOfCactiFixture(t *testing.T) {
	// A graph that IS a cactus of cacti: triangle — bridge — square —
	// bridge — triangle, cycle edges weight 1 and bridges weight 2, so
	// every cycle edge pair and every bridge is a λ=2 cut.
	//
	//	0-1-2 (triangle), 1-3 bridge, 3-4-5-6 (square), 4-7 bridge,
	//	7-8-9 (triangle)
	//
	// Golden counts: 3 + 1 + C(4,2) + 1 + 3 = 14 cuts. The triangles are
	// pairwise non-crossing families (crossing needs ≥ 4 parts), so a
	// valid cactus represents them with tree edges through an empty node;
	// only the square survives as a cycle: 1 cycle + 8 tree edges.
	b := graph.NewBuilder(10)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(1, 3, 2)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 6, 1)
	b.AddEdge(6, 3, 1)
	b.AddEdge(4, 7, 2)
	b.AddEdge(7, 8, 1)
	b.AddEdge(8, 9, 1)
	b.AddEdge(9, 7, 1)
	g := b.MustBuild()
	for _, e := range enumerators {
		res := mustAllWith(t, g, Options{}, e.enumerate)
		checkResult(t, g, res)
		if res.Lambda != 2 || res.Count != 14 {
			t.Fatalf("%s: λ=%d cuts=%d, want 2 and 14", e.name, res.Lambda, res.Count)
		}
		c := res.Cactus
		if c.NumCycles != 1 || c.NumTreeEdges() != 8 {
			t.Fatalf("%s cactus %v, want 1 cycle and 8 tree edges", e.name, c)
		}
	}
}

func TestStarOfCyclesAllCuts(t *testing.T) {
	// gen.StarOfCycles(arms, armLen): every arm cycle has armLen+1 edges,
	// cuts are edge pairs within one arm: arms·C(armLen+1, 2).
	for _, tc := range []struct{ arms, armLen int }{{2, 2}, {3, 3}, {4, 2}} {
		g := gen.StarOfCycles(tc.arms, tc.armLen)
		res := mustAll(t, g, Options{})
		if g.NumVertices() <= 16 {
			checkResult(t, g, res)
		}
		e := tc.armLen + 1
		want := tc.arms * e * (e - 1) / 2
		if res.Lambda != 2 || res.Count != want {
			t.Fatalf("star(%d,%d): λ=%d cuts=%d, want 2 and %d", tc.arms, tc.armLen, res.Lambda, res.Count, want)
		}
		// Triangle arms (armLen 2) are pairwise non-crossing and may be
		// represented laminarly; longer arms must each survive as a cycle.
		if c := res.Cactus; tc.armLen >= 3 && c.NumCycles != tc.arms {
			t.Fatalf("star(%d,%d) cactus %v, want %d cycles", tc.arms, tc.armLen, c, tc.arms)
		}
	}
}

func TestDisconnectedAllCuts(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(4, 5, 1)
	g := b.MustBuild()
	res := mustAll(t, g, Options{})
	if res.Connected || res.Components != 3 {
		t.Fatalf("connected=%v components=%d, want disconnected with 3", res.Connected, res.Components)
	}
	if res.Lambda != 0 || res.Cuts != nil || res.Cactus != nil {
		t.Fatalf("disconnected graphs must report λ=0 and materialize nothing, got %+v", res)
	}
}

func TestTinyGraphs(t *testing.T) {
	empty, _ := graph.FromEdges(0, nil)
	res := mustAll(t, empty, Options{})
	if res.NumCuts() != 0 {
		t.Fatalf("empty graph has cuts: %+v", res)
	}
	single, _ := graph.FromEdges(1, nil)
	res = mustAll(t, single, Options{})
	if res.NumCuts() != 0 || res.Lambda != 0 {
		t.Fatalf("single vertex: %+v", res)
	}
	pair := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, Weight: 7}})
	res = mustAll(t, pair, Options{})
	checkResult(t, pair, res)
	if res.Lambda != 7 || res.NumCuts() != 1 {
		t.Fatalf("K_2: λ=%d cuts=%d, want 7 and 1", res.Lambda, res.NumCuts())
	}
}

func TestMaxCutsOverflow(t *testing.T) {
	g := gen.Ring(12) // 66 minimum cuts
	_, err := AllMinCuts(context.Background(), g, Options{MaxCuts: 10})
	if !errors.Is(err, ErrTooManyCuts) {
		t.Fatalf("want ErrTooManyCuts with MaxCuts=10, got %v", err)
	}
}

func TestOptionsVariants(t *testing.T) {
	// Sequential, kernel-disabled and λ-supplied paths must agree.
	g := gen.Grid(3, 4)
	base := mustAll(t, g, Options{})
	checkResult(t, g, base)
	for _, opts := range []Options{
		{Workers: 1},
		{DisableKernel: true},
		{Lambda: base.Lambda},
		{Workers: 2, Seed: 99},
	} {
		res := mustAll(t, g, opts)
		if res.Lambda != base.Lambda || res.NumCuts() != base.NumCuts() {
			t.Fatalf("opts %+v: λ=%d cuts=%d, base λ=%d cuts=%d",
				opts, res.Lambda, res.NumCuts(), base.Lambda, base.NumCuts())
		}
	}
}
