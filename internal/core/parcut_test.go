package core

import (
	"context"
	"testing"

	"repro/internal/baseline"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/noi"
	"repro/internal/pq"
	"repro/internal/verify"
)

func defaultOpts(workers int) Options {
	return Options{Workers: workers, Queue: pq.KindBQueue, Bounded: true}
}

func TestKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"ring16", gen.Ring(16), 2},
		{"path9", gen.Path(9), 1},
		{"complete8", gen.Complete(8), 7},
		{"barbell7", gen.Barbell(7), 1},
		{"grid5x5", gen.Grid(5, 5), 2},
		{"k2", graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, Weight: 12}}), 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, _ := ParallelMinimumCut(context.Background(), tc.g, defaultOpts(4))
			if res.Value != tc.want {
				t.Fatalf("value = %d, want %d", res.Value, tc.want)
			}
			if err := verify.ValidateWitness(tc.g, res.Side, res.Value); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAgainstBruteForce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for seed := uint64(0); seed < 60; seed++ {
			n := 4 + int(seed%11)
			var g *graph.Graph
			if seed%2 == 0 {
				g = gen.ConnectedGNM(n, 3*n, seed)
			} else {
				g = gen.GNMWeighted(n, 2*n, 8, seed)
			}
			want, _ := verify.BruteForceMinCut(g)
			opts := defaultOpts(workers)
			opts.Seed = seed
			res, _ := ParallelMinimumCut(context.Background(), g, opts)
			if res.Value != want {
				t.Fatalf("workers=%d seed=%d (n=%d): value = %d, want %d",
					workers, seed, n, res.Value, want)
			}
			if want > 0 {
				if err := verify.ValidateWitness(g, res.Side, want); err != nil {
					t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
				}
			}
		}
	}
}

// The parallel solver must agree with the sequential solvers and Hao–Orlin
// on graphs too large for brute force — the full cross-algorithm
// integration test.
func TestCrossAlgorithmAgreement(t *testing.T) {
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", gen.BarabasiAlbert(800, 3, 1)},
		{"rmat", mustLC(gen.RMATDefault(10, 6, 2))},
		{"rhg", mustLC(gen.RHG(1000, 12, 5, 3))},
		{"gnm", gen.ConnectedGNM(700, 2800, 4)},
		{"planted", plantedOnly(gen.PlantedCut(250, 250, 1200, 3, 5))},
	}
	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			want := noi.MinimumCut(inst.g, noi.Options{Queue: pq.KindHeap}).Value
			if got, _ := baseline.StoerWagner(inst.g); got != want {
				t.Fatalf("StoerWagner = %d, NOI = %d", got, want)
			}
			if got, _ := flow.HaoOrlin(inst.g); got != want {
				t.Fatalf("HaoOrlin = %d, NOI = %d", got, want)
			}
			for _, workers := range []int{1, 4, 8} {
				opts := defaultOpts(workers)
				res, _ := ParallelMinimumCut(context.Background(), inst.g, opts)
				if res.Value != want {
					t.Fatalf("ParCut(workers=%d) = %d, want %d", workers, res.Value, want)
				}
				if err := verify.ValidateWitness(inst.g, res.Side, want); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
			}
		})
	}
}

func mustLC(g *graph.Graph) *graph.Graph {
	lc, _ := g.LargestComponent()
	return lc
}

func plantedOnly(g *graph.Graph, _ []bool) *graph.Graph { return g }

func TestAllQueueKindsAgree(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 7)
	want := noi.MinimumCut(g, noi.Options{Queue: pq.KindHeap}).Value
	for _, kind := range []pq.Kind{pq.KindBStack, pq.KindBQueue, pq.KindHeap} {
		res, _ := ParallelMinimumCut(context.Background(), g, Options{Workers: 4, Queue: kind, Bounded: true})
		if res.Value != want {
			t.Errorf("queue %s: value = %d, want %d", kind, res.Value, want)
		}
	}
}

// VieCut must not change the value, and, as in TestVieCutPlacement, it
// runs exactly when round 1 and the series reduction leave more than two
// vertices, which is when a second round runs.
func TestVieCutAblation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		wantRun bool // round 1 leaves more than two vertices at every seed
	}{
		// Has degree-2 vertices, so round 1 may finish the solve.
		{"gnm_400_1600", gen.ConnectedGNM(400, 1600, 9), false},
		// δ = 4 and no chains.
		{"ba_400_4", gen.BarabasiAlbert(400, 4, 9), true},
	} {
		for seed := uint64(0); seed < 3; seed++ {
			opts := Options{Workers: 4, Queue: pq.KindBQueue, Bounded: true, Seed: seed}
			with, _ := ParallelMinimumCut(context.Background(), tc.g, opts)
			opts.DisableVieCut = true
			without, _ := ParallelMinimumCut(context.Background(), tc.g, opts)
			if with.Value != without.Value {
				t.Fatalf("%s seed %d: VieCut ablation changed the value: %d vs %d", tc.name, seed, with.Value, without.Value)
			}
			if ran := with.VieCutValue > 0; ran != (with.Rounds >= 2) {
				t.Errorf("%s seed %d: VieCutValue=%d after %d rounds", tc.name, seed, with.VieCutValue, with.Rounds)
			}
			if tc.wantRun && with.VieCutValue == 0 {
				t.Errorf("%s seed %d: VieCutValue should be recorded when enabled", tc.name, seed)
			}
			if without.VieCutValue != 0 {
				t.Errorf("%s seed %d: VieCutValue should be 0 when disabled", tc.name, seed)
			}
		}
	}
}

func TestDisconnectedAndTrivial(t *testing.T) {
	if res, _ := ParallelMinimumCut(context.Background(), graph.NewBuilder(0).MustBuild(), defaultOpts(2)); res.Value != 0 {
		t.Error("empty graph")
	}
	if res, _ := ParallelMinimumCut(context.Background(), graph.NewBuilder(1).MustBuild(), defaultOpts(2)); res.Value != 0 {
		t.Error("singleton")
	}
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 2)
	b.AddEdge(3, 4, 2)
	g := b.MustBuild()
	res, _ := ParallelMinimumCut(context.Background(), g, defaultOpts(4))
	if res.Value != 0 {
		t.Fatalf("disconnected = %d, want 0", res.Value)
	}
	if err := verify.ValidateWitness(g, res.Side, 0); err != nil {
		t.Fatal(err)
	}
}

func TestValueDeterministicAcrossWorkerCounts(t *testing.T) {
	g := mustLC(gen.RHG(2000, 16, 5, 11))
	want := int64(-1)
	for _, workers := range []int{1, 2, 4, 8, 16} {
		res, _ := ParallelMinimumCut(context.Background(), g, defaultOpts(workers))
		if want < 0 {
			want = res.Value
		} else if res.Value != want {
			t.Fatalf("workers=%d: value %d != %d", workers, res.Value, want)
		}
	}
}

func TestStatsAndRounds(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 4, 3)
	res, _ := ParallelMinimumCut(context.Background(), g, defaultOpts(4))
	if res.Rounds == 0 {
		t.Error("rounds not counted")
	}
	if res.Stats.Pops == 0 {
		t.Error("stats not aggregated")
	}
	if res.Timing.VieCut <= 0 || res.Timing.Scan <= 0 || res.Timing.Contract <= 0 {
		t.Errorf("phase timings missing: %+v", res.Timing)
	}
	if res.Timing.Total() != res.Timing.VieCut+res.Timing.Scan+res.Timing.Contract {
		t.Error("Total inconsistent")
	}
	noVC, _ := ParallelMinimumCut(context.Background(), g, Options{Workers: 4, Queue: pq.KindBQueue, Bounded: true, DisableVieCut: true})
	if noVC.Timing.VieCut != 0 {
		t.Error("VieCut timing should be zero when disabled")
	}
}

func BenchmarkParCutWorkers(b *testing.B) {
	g := mustLC(gen.RHG(1<<13, 32, 5, 1))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[bool]string{true: "w"}[true]+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ParallelMinimumCut(context.Background(), g, defaultOpts(workers))
			}
		})
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
