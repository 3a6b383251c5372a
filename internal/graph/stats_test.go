package graph

import "testing"

func statsFixture(t *testing.T) *Graph {
	t.Helper()
	// Path 0-1-2-3 plus isolated 4.
	b := NewBuilder(5)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 3, 4)
	return b.MustBuild()
}

func TestBFSDistances(t *testing.T) {
	g := statsFixture(t)
	d := g.BFSDistances(0)
	want := []int32{0, 1, 2, 3, -1}
	for v := range want {
		if d[v] != want[v] {
			t.Errorf("dist[%d] = %d, want %d", v, d[v], want[v])
		}
	}
}

func TestEccentricityAndPseudoDiameter(t *testing.T) {
	g := statsFixture(t)
	if e := g.Eccentricity(1); e != 2 {
		t.Errorf("ecc(1) = %d, want 2", e)
	}
	// Double sweep from the middle finds the true path diameter 3.
	if pd := g.PseudoDiameter(1); pd != 3 {
		t.Errorf("pseudo-diameter = %d, want 3", pd)
	}
	// Ring of 8: diameter 4 from anywhere.
	b := NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.AddEdge(int32(i), int32((i+1)%8), 1)
	}
	ring := b.MustBuild()
	if pd := ring.PseudoDiameter(3); pd != 4 {
		t.Errorf("ring pseudo-diameter = %d, want 4", pd)
	}
}
