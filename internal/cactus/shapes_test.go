package cactus

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// permuted returns g with its vertex ids relabeled by a seeded
// permutation. The KT adjacency order follows the ids, so relabeling
// changes which step splits which structure off the root.
func permuted(g *graph.Graph, seed uint64) *graph.Graph {
	perm := gen.NewRNG(seed).Perm(g.NumVertices())
	b := graph.NewBuilder(g.NumVertices())
	g.ForEachEdge(func(u, v int32, w int64) { b.AddEdge(perm[u], perm[v], w) })
	return b.MustBuild()
}

// emptyNodes counts the cactus nodes holding no vertex.
func emptyNodes(c *Cactus) int {
	held := make([]bool, c.NumNodes)
	for _, x := range c.VertexNode {
		held[x] = true
	}
	n := 0
	for _, h := range held {
		if !h {
			n++
		}
	}
	return n
}

// TestKnownShapesUnderPermutations pins the cactus of the structures the
// chain merge reopens: two and three 4-cycles through one empty node and
// a 4-cycle through two empty nodes that carry cycles (rule (c) with
// cycle units), a 4-ring (rule (c) reopening a star), the figure eight
// and the cactus of cacti. Every row runs at Workers 1 and 2 and under
// 16 vertex permutations, since the adjacency order decides which step
// reopens which structure.
func TestKnownShapesUnderPermutations(t *testing.T) {
	type e = graph.Edge
	cases := []struct {
		name                             string
		n                                int
		edges                            []e
		lambda                           int64
		cuts, nodes, empty, cycles, tree int
	}{
		{"two_4cycles_empty_node", 6, []e{
			{U: 0, V: 1, Weight: 2}, {U: 1, V: 2, Weight: 2}, {U: 3, V: 4, Weight: 2}, {U: 4, V: 5, Weight: 2},
			{U: 0, V: 3, Weight: 1}, {U: 0, V: 5, Weight: 1}, {U: 2, V: 3, Weight: 1}, {U: 2, V: 5, Weight: 1},
		}, 4, 11, 7, 1, 2, 0},
		{"three_4cycles_empty_node", 9, []e{
			{U: 0, V: 1, Weight: 2}, {U: 1, V: 2, Weight: 2}, {U: 3, V: 4, Weight: 2},
			{U: 4, V: 5, Weight: 2}, {U: 6, V: 7, Weight: 2}, {U: 7, V: 8, Weight: 2},
			{U: 0, V: 3, Weight: 1}, {U: 0, V: 6, Weight: 1}, {U: 2, V: 5, Weight: 1},
			{U: 2, V: 8, Weight: 1}, {U: 3, V: 8, Weight: 1}, {U: 5, V: 6, Weight: 1},
		}, 4, 18, 10, 1, 3, 0},
		// A 4-cycle A, E1, E2, B whose empty nodes each carry a 4-cycle
		// (E1, 2, 3, 4 and E2, 5, 6, 7), with A = 0 and B = 1: splitting B
		// off A reopens a star with two cycle units (rule (c)).
		{"4cycle_two_empty_carriers", 8, []e{
			{U: 0, V: 1, Weight: 4}, {U: 0, V: 2, Weight: 2}, {U: 0, V: 4, Weight: 2},
			{U: 1, V: 5, Weight: 2}, {U: 1, V: 7, Weight: 2}, {U: 2, V: 5, Weight: 1},
			{U: 2, V: 7, Weight: 1}, {U: 4, V: 5, Weight: 1}, {U: 4, V: 7, Weight: 1},
			{U: 2, V: 3, Weight: 4}, {U: 3, V: 4, Weight: 4}, {U: 5, V: 6, Weight: 4}, {U: 6, V: 7, Weight: 4},
		}, 8, 16, 10, 2, 3, 0},
		{"ring_4", 4, gen.Ring(4).Edges(), 2, 6, 4, 0, 1, 0},
		// The fixture of TestTwoCyclesSharingVertex.
		{"figure_eight", 8, []e{
			{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}, {U: 2, V: 3, Weight: 1}, {U: 3, V: 4, Weight: 1},
			{U: 4, V: 0, Weight: 1}, {U: 0, V: 5, Weight: 1}, {U: 5, V: 6, Weight: 1}, {U: 6, V: 7, Weight: 1},
			{U: 7, V: 0, Weight: 1},
		}, 2, 16, 8, 0, 2, 0},
		// The fixture of TestCactusOfCactiFixture.
		{"cactus_of_cacti", 10, []e{
			{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}, {U: 2, V: 0, Weight: 1}, {U: 1, V: 3, Weight: 2},
			{U: 3, V: 4, Weight: 1}, {U: 4, V: 5, Weight: 1}, {U: 5, V: 6, Weight: 1}, {U: 6, V: 3, Weight: 1},
			{U: 4, V: 7, Weight: 2}, {U: 7, V: 8, Weight: 1}, {U: 8, V: 9, Weight: 1}, {U: 9, V: 7, Weight: 1},
		}, 2, 14, 12, 2, 1, 8},
	}
	for _, tc := range cases {
		base := graph.MustFromEdges(tc.n, tc.edges)
		for seed := uint64(0); seed <= 16; seed++ {
			g := base
			if seed > 0 {
				g = permuted(base, seed)
			}
			for _, workers := range []int{1, 2} {
				label := fmt.Sprintf("%s/perm_%d/workers_%d", tc.name, seed, workers)
				res := mustAll(t, g, Options{Workers: workers})
				c := res.Cactus
				if res.Lambda != tc.lambda || res.Count != tc.cuts {
					t.Fatalf("%s: λ=%d cuts=%d, want %d and %d", label, res.Lambda, res.Count, tc.lambda, tc.cuts)
				}
				if c.NumNodes != tc.nodes || emptyNodes(c) != tc.empty || c.NumCycles != tc.cycles || c.NumTreeEdges() != tc.tree {
					t.Fatalf("%s: %v with %d empty nodes, want %d nodes (%d empty), %d cycles, %d tree edges",
						label, c, emptyNodes(c), tc.nodes, tc.empty, tc.cycles, tc.tree)
				}
				if err := c.Validate(g); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}
