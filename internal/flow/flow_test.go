package flow

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// maxFlowEK computes the s-t maximum flow of the undirected graph g with
// the Edmonds–Karp algorithm (BFS shortest augmenting paths). It returns
// the flow value and the s-side of a minimum s-t cut. O(V·E²); the
// independent oracle the Dinic engine is checked against.
func maxFlowEK(g *graph.Graph, s, t int32) (int64, []bool) {
	nw := newNetwork(g)
	parentArc := make([]int32, nw.n)
	var total int64
	for {
		// BFS in the residual graph.
		for i := range parentArc {
			parentArc[i] = -1
		}
		parentArc[s] = -2
		queue := []int32{s}
		found := false
	bfs:
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, a := range nw.arcs(v) {
				w := nw.head[a]
				if parentArc[w] == -1 && nw.res[a] > 0 {
					parentArc[w] = a
					if w == t {
						found = true
						break bfs
					}
					queue = append(queue, w)
				}
			}
		}
		if !found {
			break
		}
		// Bottleneck along the path.
		bottleneck := int64(math.MaxInt64)
		for v := t; v != s; {
			a := parentArc[v]
			if nw.res[a] < bottleneck {
				bottleneck = nw.res[a]
			}
			v = nw.head[a^1]
		}
		for v := t; v != s; {
			a := parentArc[v]
			nw.push(a, bottleneck)
			v = nw.head[a^1]
		}
		total += bottleneck
	}
	side, _ := nw.reach(nil, nil, []int32{s}, 0)
	return total, side
}

// minSTCut is MinSTCut for terminals a test knows to be valid.
func minSTCut(g *graph.Graph, s, t int32) (int64, []bool) {
	v, side, err := MinSTCut(context.Background(), g, s, t)
	if err != nil {
		panic(err)
	}
	return v, side
}

func pathGraph(ws ...int64) *graph.Graph {
	b := graph.NewBuilder(len(ws) + 1)
	for i, w := range ws {
		b.AddEdge(int32(i), int32(i+1), w)
	}
	return b.MustBuild()
}

func TestMaxFlowPath(t *testing.T) {
	g := pathGraph(5, 2, 9)
	for _, fn := range []struct {
		name string
		f    func(*graph.Graph, int32, int32) (int64, []bool)
	}{{"EK", maxFlowEK}, {"Dinic", minSTCut}} {
		t.Run(fn.name, func(t *testing.T) {
			v, side := fn.f(g, 0, 3)
			if v != 2 {
				t.Fatalf("flow = %d, want 2", v)
			}
			if !side[0] || side[3] {
				t.Error("side must contain s and not t")
			}
			if got := verify.CutValue(g, side); got != 2 {
				t.Errorf("witness cut = %d, want 2", got)
			}
		})
	}
}

func TestMaxFlowAgainstBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		g := gen.GNMWeighted(9, 18, 7, seed)
		want, _ := verify.BruteForceSTMinCut(g, 0, 8)
		ek, ekSide := maxFlowEK(g, 0, 8)
		dv, dSide := minSTCut(g, 0, 8)
		if ek != want {
			t.Fatalf("seed %d: EK = %d, want %d", seed, ek, want)
		}
		if dv != want {
			t.Fatalf("seed %d: Dinic = %d, want %d", seed, dv, want)
		}
		if got := verify.CutValue(g, ekSide); got != want {
			t.Fatalf("seed %d: EK witness = %d, want %d", seed, got, want)
		}
		if got := verify.CutValue(g, dSide); got != want {
			t.Fatalf("seed %d: Dinic witness = %d, want %d", seed, got, want)
		}
	}
}

func TestMaxFlowDisconnectedPair(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 3)
	b.AddEdge(2, 3, 4)
	g := b.MustBuild()
	if v, _ := maxFlowEK(g, 0, 3); v != 0 {
		t.Errorf("EK across components = %d, want 0", v)
	}
	if v, _ := minSTCut(g, 0, 3); v != 0 {
		t.Errorf("Dinic across components = %d, want 0", v)
	}
}

func TestMinSTCutRejectsBadTerminals(t *testing.T) {
	g := gen.Ring(4)
	for _, st := range [][2]int32{{0, 0}, {2, 2}, {-1, 2}, {0, 9}, {4, 0}} {
		if v, side, err := MinSTCut(context.Background(), g, st[0], st[1]); err == nil {
			t.Errorf("MinSTCut(%d, %d) = %d, %v; want an error", st[0], st[1], v, side)
		}
	}
}

func TestHaoOrlinKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"ring8", gen.Ring(8), 2},
		{"path4", gen.Path(4), 1},
		{"complete5", gen.Complete(5), 4},
		{"star6", gen.Star(6), 1},
		{"barbell5", gen.Barbell(5), 1},
		{"grid4x4", gen.Grid(4, 4), 2},
		{"weightedpath", pathGraph(5, 2, 9), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, side := HaoOrlin(tc.g)
			if got != tc.want {
				t.Fatalf("HaoOrlin = %d, want %d", got, tc.want)
			}
			if err := verify.ValidateWitness(tc.g, side, got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestHaoOrlinAgainstBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 120; seed++ {
		n := 4 + int(seed%9)
		g := gen.GNMWeighted(n, 2*n, 6, seed)
		want, _ := verify.BruteForceMinCut(g)
		got, side := HaoOrlin(g)
		if got != want {
			t.Fatalf("seed %d (n=%d): HaoOrlin = %d, want %d", seed, n, got, want)
		}
		if want > 0 {
			if err := verify.ValidateWitness(g, side, got); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestHaoOrlinConnectedRandom(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		n := 5 + int(seed%10)
		g := gen.ConnectedGNM(n, 3*n, seed)
		want, _ := verify.BruteForceMinCut(g)
		got, side := HaoOrlin(g)
		if got != want {
			t.Fatalf("seed %d (n=%d): HaoOrlin = %d, want %d", seed, n, got, want)
		}
		if err := verify.ValidateWitness(g, side, got); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestHaoOrlinDisconnected(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 2)
	b.AddEdge(3, 4, 2)
	b.AddEdge(4, 5, 2)
	g := b.MustBuild()
	got, side := HaoOrlin(g)
	if got != 0 {
		t.Fatalf("HaoOrlin on disconnected = %d, want 0", got)
	}
	if err := verify.ValidateWitness(g, side, 0); err != nil {
		t.Fatal(err)
	}
}

func TestHaoOrlinTinyGraphs(t *testing.T) {
	if v, _ := HaoOrlin(graph.NewBuilder(1).MustBuild()); v != 0 {
		t.Error("single vertex should report 0")
	}
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 7)
	g := b.MustBuild()
	v, side := HaoOrlin(g)
	if v != 7 {
		t.Fatalf("K2 mincut = %d, want 7", v)
	}
	if err := verify.ValidateWitness(g, side, 7); err != nil {
		t.Fatal(err)
	}
}

// On a planted-cut instance the minimum cut must not exceed the planted
// crossing weight, and HO must find a cut of exactly the minimum value.
func TestHaoOrlinPlanted(t *testing.T) {
	g, side := gen.PlantedCut(12, 13, 60, 2, 5)
	planted := verify.CutValue(g, side)
	got, w := HaoOrlin(g)
	if got > planted {
		t.Fatalf("HaoOrlin = %d exceeds planted cut %d", got, planted)
	}
	want, _ := verify.BruteForceMinCut(g)
	if got != want {
		t.Fatalf("HaoOrlin = %d, brute force %d", got, want)
	}
	if err := verify.ValidateWitness(g, w, got); err != nil {
		t.Fatal(err)
	}
}

func TestHaoOrlinLargerSmoke(t *testing.T) {
	g := gen.RHG(600, 8, 5, 3)
	lc, _ := g.LargestComponent()
	if lc.NumVertices() < 100 {
		t.Skip("rhg too fragmented")
	}
	got, side := HaoOrlin(lc)
	if err := verify.ValidateWitness(lc, side, got); err != nil {
		t.Fatal(err)
	}
	// Sanity: min cut cannot exceed min degree.
	if _, d := lc.MinDegreeVertex(); got > d {
		t.Errorf("cut %d exceeds min degree %d", got, d)
	}
}

func BenchmarkHaoOrlinGNM(b *testing.B) {
	g := gen.ConnectedGNM(2000, 8000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HaoOrlin(g)
	}
}
