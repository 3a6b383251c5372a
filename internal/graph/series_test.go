package graph

import (
	"math"
	"slices"
	"testing"
)

// withK4 returns the edges of a heavy K4 on vertices 0–3 followed by
// extra, so that 0–3 are chain ends with at least three neighbours.
func withK4(extra ...Edge) []Edge {
	var edges []Edge
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			edges = append(edges, Edge{U: u, V: v, Weight: 10})
		}
	}
	return append(edges, extra...)
}

// series lists weighted edges along a walk of vertices.
func series(weights []int64, walk ...int32) []Edge {
	edges := make([]Edge, len(weights))
	for i, w := range weights {
		edges[i] = Edge{U: walk[i], V: walk[i+1], Weight: w}
	}
	return edges
}

var seriesCases = []struct {
	name    string
	n       int
	edges   []Edge
	onto    map[int32]int32 // chain vertex → the vertex it merges onto
	cand    int64
	witness []int32 // sorted
	// ab, when set, is an a–b pair whose edge in the contracted graph
	// must weigh abWeight.
	ab       [2]int32
	abWeight int64
}{
	{
		// Read from 0: weights 5, 2, 7, 3; the lightest edge is (4,5).
		name:  "split_at_lightest",
		n:     7,
		edges: withK4(series([]int64{5, 2, 7, 3}, 0, 4, 5, 6, 3)...),
		onto:  map[int32]int32{4: 0, 5: 3, 6: 3},
		cand:  5, witness: []int32{5, 6},
		ab: [2]int32{0, 3}, abWeight: 10 + 2,
	},
	{
		// Weights 3, 1, 4, 1, 5 read from the lower end 0, though the
		// chain's vertices are numbered from 3's side: the first 1 wins.
		name:  "lowest_index_tie",
		n:     8,
		edges: withK4(series([]int64{3, 1, 4, 1, 5}, 0, 7, 6, 5, 4, 3)...),
		onto:  map[int32]int32{7: 0, 6: 3, 5: 3, 4: 3},
		cand:  2, witness: []int32{5, 6},
		ab: [2]int32{0, 3}, abWeight: 10 + 1,
	},
	{
		// A cycle hanging off 0 (a = b): every chain vertex merges into 0.
		name:  "hanging_cycle",
		n:     7,
		edges: withK4(series([]int64{2, 9, 3, 4}, 0, 4, 5, 6, 0)...),
		onto:  map[int32]int32{4: 0, 5: 0, 6: 0},
		cand:  5, witness: []int32{4, 5},
	},
	{
		name:  "pure_cycle",
		n:     6,
		edges: series([]int64{4, 2, 6, 2, 5, 3}, 0, 1, 2, 3, 4, 5, 0),
		onto:  map[int32]int32{1: 0, 2: 0, 3: 0, 4: 0, 5: 0},
		cand:  4, witness: []int32{2, 3},
	},
	{
		name:  "path",
		n:     5,
		edges: series([]int64{3, 1, 2, 5}, 0, 1, 2, 3, 4),
		onto:  map[int32]int32{1: 0, 2: 4, 3: 4},
		cand:  3, witness: []int32{2},
		ab: [2]int32{0, 4}, abWeight: 1,
	},
	{
		// Three chains between hubs 0 and 1 fold into one 0–1 edge of
		// weight 4 + 2 + 3.
		name: "theta",
		n:    6,
		edges: slices.Concat(
			series([]int64{4, 6}, 0, 2, 1),
			series([]int64{5, 2, 7}, 0, 3, 4, 1),
			series([]int64{3, 3}, 0, 5, 1)),
		onto: map[int32]int32{2: 1, 3: 0, 4: 1, 5: 1},
		cand: 6, witness: []int32{5},
		ab: [2]int32{0, 1}, abWeight: 9,
	},
}

func TestSeriesMapping(t *testing.T) {
	for _, tc := range seriesCases {
		t.Run(tc.name, func(t *testing.T) {
			g := MustFromEdges(tc.n, tc.edges)
			m, cand, witness := g.SeriesMapping()
			if m.NumBlocks != tc.n-len(tc.onto) || len(m.Block) != tc.n {
				t.Fatalf("NumBlocks = %d over %d vertices, want %d over %d",
					m.NumBlocks, len(m.Block), tc.n-len(tc.onto), tc.n)
			}
			seen := make(map[int32]int32) // block → the surviving vertex in it
			for v := int32(0); v < int32(tc.n); v++ {
				r, folded := tc.onto[v]
				if !folded {
					r = v
				}
				if m.Block[v] != m.Block[r] {
					t.Errorf("vertex %d in block %d, want %d's block %d", v, m.Block[v], r, m.Block[r])
				}
				if other, ok := seen[m.Block[r]]; ok && other != r {
					t.Errorf("survivors %d and %d share block %d", other, r, m.Block[r])
				}
				seen[m.Block[r]] = r
			}
			if cand != tc.cand {
				t.Errorf("candidate = %d, want %d", cand, tc.cand)
			}
			got := slices.Clone(witness)
			slices.Sort(got)
			if !slices.Equal(got, tc.witness) {
				t.Errorf("witness = %v, want %v", got, tc.witness)
			}
			side := make([]bool, tc.n)
			for _, v := range witness {
				side[v] = true
			}
			if c := cutValue(g, side); c != cand {
				t.Errorf("witness cuts %d, candidate %d", c, cand)
			}
			h := g.Contract(m)
			if tc.abWeight > 0 {
				if w := h.EdgeWeight(m.Block[tc.ab[0]], m.Block[tc.ab[1]]); w != tc.abWeight {
					t.Errorf("contracted %d–%d edge weighs %d, want %d", tc.ab[0], tc.ab[1], w, tc.abWeight)
				}
			}
		})
	}
}

func TestSeriesMappingWithoutChains(t *testing.T) {
	g := MustFromEdges(4, withK4())
	m, cand, witness := g.SeriesMapping()
	if m.Block != nil || m.NumBlocks != 4 || cand != math.MaxInt64 || witness != nil {
		t.Fatalf("got (%v, %d), %d, %v; want (nil, 4), MaxInt64, nil", m.Block, m.NumBlocks, cand, witness)
	}
	if allocs := testing.AllocsPerRun(10, func() { g.SeriesMapping() }); allocs != 0 {
		t.Errorf("%v allocations without a chain, want 0", allocs)
	}
}

func TestReduceSeries(t *testing.T) {
	chain := withK4(series([]int64{5, 2, 7, 3}, 0, 4, 5, 6, 3)...)
	for _, tc := range []struct {
		name  string
		n     int
		edges []Edge
		held  int64 // value of the cut the solver holds: vertex 0 alone
		wantN int   // vertices of the returned graph
		want  int64 // best value returned
	}{
		// One cycle folds onto one vertex; its candidate is λ.
		{"pure_cycle", 6, series([]int64{4, 2, 6, 2, 5, 3}, 0, 1, 2, 3, 4, 5, 0), 100, 1, 4},
		// A path folds onto its two ends; the edge left between them is λ.
		{"path", 5, series([]int64{3, 1, 2, 5}, 0, 1, 2, 3, 4), 100, 2, 1},
		// Four blocks would be left: the fold is deferred, the candidate taken.
		{"deferred", 7, chain, 100, 7, 5},
		{"candidate_not_below", 7, chain, 5, 7, 5},
		{"no_chain", 4, withK4(), 100, 4, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := MustFromEdges(tc.n, tc.edges)
			m, _, _ := g.SeriesMapping()
			labels := Identity(tc.n)
			held := make([]bool, tc.n)
			held[0] = true
			h, fold, value, side := g.ReduceSeries(labels, 2, tc.held, held)
			if h.NumVertices() != tc.wantN || value != tc.want {
				t.Fatalf("got %d vertices and value %d, want %d and %d", h.NumVertices(), value, tc.wantN, tc.want)
			}
			if value == tc.held {
				if &side[0] != &held[0] {
					t.Errorf("held cut replaced by an equal one")
				}
			} else if c := cutValue(g, side); c != value {
				t.Errorf("side cuts %d, value %d", c, value)
			}
			if tc.wantN == tc.n {
				if h != g || !slices.Equal(labels, Identity(tc.n)) || !slices.Equal(fold.Block, m.Block) || fold.NumBlocks != m.NumBlocks {
					t.Errorf("deferred fold: graph, labels or fold changed")
				}
				return
			}
			if fold.Block != nil || fold.NumBlocks != tc.wantN || !slices.Equal(labels, m.Block) {
				t.Errorf("contracted: fold (%v, %d), labels %v; want (nil, %d), labels %v",
					fold.Block, fold.NumBlocks, labels, tc.wantN, m.Block)
			}
		})
	}
}

// cutValue sums the weights of the edges with one end on side.
func cutValue(g *Graph, side []bool) int64 {
	var c int64
	g.ForEachEdge(func(u, v int32, w int64) {
		if side[u] != side[v] {
			c += w
		}
	})
	return c
}
