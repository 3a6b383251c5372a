package gen

import (
	"testing"

	"repro/internal/graph"
)

func TestSBMEdgeCounts(t *testing.T) {
	// Two blocks of 100; expected intra edges ≈ 2·C(100,2)·pIn, inter
	// ≈ 100·100·pOut. Allow ±40% sampling slack.
	g := StochasticBlockModel([]int{100, 100}, 0.2, 0.01, 3)
	var intra, inter int
	g.ForEachEdge(func(u, v int32, w int64) {
		if (u < 100) == (v < 100) {
			intra++
		} else {
			inter++
		}
	})
	expIntra := 2 * 4950 * 0.2
	expInter := 10000 * 0.01
	if float64(intra) < 0.6*expIntra || float64(intra) > 1.4*expIntra {
		t.Errorf("intra = %d, expected ≈ %.0f", intra, expIntra)
	}
	if float64(inter) < 0.4*expInter || float64(inter) > 1.8*expInter {
		t.Errorf("inter = %d, expected ≈ %.0f", inter, expInter)
	}
}

func TestSBMDeterministicAndExtremes(t *testing.T) {
	a := StochasticBlockModel([]int{30, 40}, 0.3, 0.05, 9)
	b := StochasticBlockModel([]int{30, 40}, 0.3, 0.05, 9)
	if !graph.Equal(a, b) {
		t.Error("same seed differs")
	}
	// p=1 inside, p=0 outside: disjoint cliques.
	c := StochasticBlockModel([]int{5, 6}, 1, 0, 1)
	if c.NumEdges() != 10+15 {
		t.Errorf("m = %d, want 25", c.NumEdges())
	}
	if c.IsConnected() {
		t.Error("pOut=0 must disconnect the blocks")
	}
	// Empty graph corner.
	if g := StochasticBlockModel(nil, 0.5, 0.5, 1); g.NumVertices() != 0 {
		t.Error("no blocks should give empty graph")
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0: the pure ring lattice with exactly n·k edges.
	g := WattsStrogatz(50, 3, 0, 1)
	if g.NumEdges() != 150 {
		t.Fatalf("m = %d, want 150", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("lattice must be connected")
	}
	for v := 0; v < 50; v++ {
		if g.Degree(int32(v)) != 6 {
			t.Fatalf("degree[%d] = %d, want 6", v, g.Degree(int32(v)))
		}
	}
}

// pseudoDiameter is the double-sweep lower bound on g's diameter: the
// eccentricity of the vertex farthest from vertex 0.
func pseudoDiameter(g *graph.Graph) int32 {
	far, _ := bfsFarthest(g, 0)
	_, ecc := bfsFarthest(g, far)
	return ecc
}

// bfsFarthest returns a vertex at maximum unweighted BFS distance from
// src and that distance.
func bfsFarthest(g *graph.Graph, src int32) (far, dist int32) {
	d := make([]int32, g.NumVertices())
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.Neighbors(v) {
			if d[u] < 0 {
				d[u] = d[v] + 1
				queue = append(queue, u)
			}
		}
	}
	far = queue[len(queue)-1] // BFS dequeues in nondecreasing distance
	return far, d[far]
}

func TestWattsStrogatzRewiring(t *testing.T) {
	lattice := WattsStrogatz(200, 4, 0, 5)
	rewired := WattsStrogatz(200, 4, 0.3, 5)
	if graph.Equal(lattice, rewired) {
		t.Error("beta=0.3 should change the edge set")
	}
	// Rewiring keeps the edge count within the duplicates-aggregated
	// bound and must shrink the diameter (small-world effect).
	if rewired.NumEdges() > lattice.NumEdges() {
		t.Error("rewiring cannot add edges")
	}
	dl := pseudoDiameter(lattice)
	dr := pseudoDiameter(rewired)
	if !(float64(dr) < 0.8*float64(dl)) {
		t.Errorf("diameter should shrink: lattice %d, rewired %d", dl, dr)
	}
}

func TestWattsStrogatzFullRewire(t *testing.T) {
	g := WattsStrogatz(300, 2, 1.0, 7)
	if g.NumVertices() != 300 {
		t.Fatal("n wrong")
	}
	// Fully random: max degree should exceed the lattice's 2k.
	h := g.DegreeHistogram()
	if h[len(h)-1] <= 4 {
		t.Errorf("max degree %d suggests no rewiring happened", h[len(h)-1])
	}
}

func TestSBMProbabilityMonotone(t *testing.T) {
	sparse := StochasticBlockModel([]int{80, 80}, 0.05, 0.01, 11)
	dense := StochasticBlockModel([]int{80, 80}, 0.25, 0.01, 11)
	if dense.NumEdges() <= sparse.NumEdges() {
		t.Error("higher pIn must add edges")
	}
}
