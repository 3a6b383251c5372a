package gen

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(1), NewRNG(1)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(2)
	diff := false
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical streams")
	}
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(4)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d in permutation", v)
		}
		seen[v] = true
	}
}

func TestSimpleFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		n, m int
	}{
		{"ring", Ring(10), 10, 10},
		{"path", Path(10), 10, 9},
		{"complete", Complete(6), 6, 15},
		{"grid", Grid(3, 4), 12, 17},
		{"star", Star(8), 8, 7},
		{"barbell", Barbell(5), 10, 21},
		// 3 cliques of 4: 3·C(4,2) intra edges + 2 bridges.
		{"cliquechain", CliqueChain(3, 4), 12, 20},
		// 3 arms of 4 private vertices: each arm cycle has 5 edges.
		{"starofcycles", StarOfCycles(3, 4), 13, 15},
		// 4 cliques of 5: 4·C(5,2) intra edges + 4 ring edges.
		{"ringofcliques", RingOfCliques(4, 5), 20, 44},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.NumVertices() != tc.n || tc.g.NumEdges() != tc.m {
				t.Errorf("n=%d m=%d, want %d, %d", tc.g.NumVertices(), tc.g.NumEdges(), tc.n, tc.m)
			}
			if !tc.g.IsConnected() {
				t.Error("not connected")
			}
		})
	}
}

func TestGNM(t *testing.T) {
	g := GNM(100, 300, 5)
	if g.NumVertices() != 100 {
		t.Errorf("n = %d", g.NumVertices())
	}
	if g.NumEdges() != 300 {
		t.Errorf("m = %d, want 300 (sparse request should hit target)", g.NumEdges())
	}
	// Deterministic per seed.
	if !graph.Equal(g, GNM(100, 300, 5)) {
		t.Error("same seed produced different graphs")
	}
	if graph.Equal(g, GNM(100, 300, 6)) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGNMWeighted(t *testing.T) {
	g := GNMWeighted(50, 100, 10, 1)
	bad := false
	g.ForEachEdge(func(u, v int32, w int64) {
		if w < 1 || w > 10 {
			bad = true
		}
	})
	if bad {
		t.Error("weight out of [1,10]")
	}
}

func TestConnectedGNM(t *testing.T) {
	for _, n := range []int{2, 10, 500} {
		g := ConnectedGNM(n, 3*n, uint64(n))
		if !g.IsConnected() {
			t.Errorf("n=%d: not connected", n)
		}
		if g.NumVertices() != n {
			t.Errorf("n=%d: got %d vertices", n, g.NumVertices())
		}
	}
}

func TestPlantedCut(t *testing.T) {
	g, side := PlantedCut(20, 30, 80, 3, 7)
	if g.NumVertices() != 50 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	count := 0
	for _, s := range side {
		if s {
			count++
		}
	}
	if count != 20 {
		t.Errorf("planted side size = %d, want 20", count)
	}
	// The planted cut crosses exactly 3 unit edges.
	var cross int64
	g.ForEachEdge(func(u, v int32, w int64) {
		if side[u] != side[v] {
			cross += w
		}
	})
	if cross != 3 {
		t.Errorf("crossing weight = %d, want 3", cross)
	}
	if !g.IsConnected() {
		t.Error("planted graph should be connected")
	}
}

func TestRMAT(t *testing.T) {
	g := RMATDefault(10, 8, 42)
	if g.NumVertices() != 1024 {
		t.Fatalf("n = %d, want 1024", g.NumVertices())
	}
	if g.NumEdges() < 4*1024 || g.NumEdges() > 8*1024 {
		t.Errorf("m = %d, want within [4096, 8192] after dedup", g.NumEdges())
	}
	if !graph.Equal(g, RMATDefault(10, 8, 42)) {
		t.Error("RMAT not deterministic per seed")
	}
	// Skew: max degree should far exceed the average.
	h := g.DegreeHistogram()
	avg := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(h[len(h)-1]) < 3*avg {
		t.Errorf("max degree %d not skewed vs avg %.1f", h[len(h)-1], avg)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(2000, 4, 11)
	if g.NumVertices() != 2000 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if !g.IsConnected() {
		t.Error("BA graph should be connected")
	}
	// m ≈ k(n-k-1) + seed clique
	want := 4*(2000-5) + 10
	if g.NumEdges() != want {
		t.Errorf("m = %d, want %d", g.NumEdges(), want)
	}
	h := g.DegreeHistogram()
	if h[0] < 4 {
		t.Errorf("min degree %d < k", h[0])
	}
	avg := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(h[len(h)-1]) < 5*avg {
		t.Errorf("max degree %d lacks hubs (avg %.1f)", h[len(h)-1], avg)
	}
}

// The band-based RHG generator must produce exactly the edge set of the
// naive all-pairs generator.
func TestRHGMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		n      int
		avgDeg float64
		seed   uint64
	}{
		{50, 4, 1}, {200, 8, 2}, {500, 16, 3}, {701, 6, 4}, {300, 32, 5},
	} {
		fast := RHG(tc.n, tc.avgDeg, 5, tc.seed)
		naive := RHGNaive(tc.n, tc.avgDeg, 5, tc.seed)
		if !graph.Equal(fast, naive) {
			t.Errorf("n=%d deg=%.0f seed=%d: band generator differs from naive (m=%d vs %d)",
				tc.n, tc.avgDeg, tc.seed, fast.NumEdges(), naive.NumEdges())
		}
	}
}

// Average degree should track the requested value within a generous
// constant factor (the Krioukov approximation is asymptotic).
func TestRHGAverageDegree(t *testing.T) {
	for _, deg := range []float64{8, 16, 32} {
		g := RHG(4000, deg, 5, 99)
		got := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
		if got < deg/3 || got > deg*3 {
			t.Errorf("target avg degree %.0f, got %.1f", deg, got)
		}
	}
	// Monotone in the request.
	g1 := RHG(2000, 8, 5, 7)
	g2 := RHG(2000, 32, 5, 7)
	if g2.NumEdges() <= g1.NumEdges() {
		t.Errorf("higher degree request should yield more edges: %d vs %d", g1.NumEdges(), g2.NumEdges())
	}
}

func TestRHGPowerLawTail(t *testing.T) {
	g := RHG(8000, 16, 5, 123)
	h := g.DegreeHistogram()
	avg := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
	// β=5 is a thin tail: max degree should exceed the average but not
	// absurdly (unlike β≈2 graphs).
	if float64(h[len(h)-1]) < 2*avg {
		t.Errorf("max degree %d suspiciously small (avg %.1f)", h[len(h)-1], avg)
	}
}

func TestRHGDeterministic(t *testing.T) {
	if !graph.Equal(RHG(400, 8, 5, 5), RHG(400, 8, 5, 5)) {
		t.Error("RHG not deterministic per seed")
	}
}

func TestRHGParams(t *testing.T) {
	alpha, r := rhgParams(1<<20, 32, 5)
	if alpha != 2 {
		t.Errorf("alpha = %v, want 2", alpha)
	}
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		t.Errorf("R = %v", r)
	}
	// Tiny n with huge degree clamps R instead of going negative.
	_, r2 := rhgParams(4, 1000, 5)
	if r2 < 1 {
		t.Errorf("R = %v, want clamped >= 1", r2)
	}
}

func BenchmarkRHG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RHG(1<<13, 16, 5, uint64(i))
	}
}

func BenchmarkRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RMATDefault(13, 8, uint64(i))
	}
}
