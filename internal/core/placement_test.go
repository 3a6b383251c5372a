package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/verify"
)

// placementCases pins λ on inputs that round 1 leaves in different
// states: λ = δ, where VieCut only confirms the bound; λ < δ, where VieCut
// on the contracted graph lowers it; rings of cliques, where round 1
// leaves a ring; and chains of degree-2 vertices, which the series
// reduction folds before round 1, so that rings, paths, cycles hanging
// off one vertex and theta graphs finish without a round and VieCut must
// not run. λ comes from the closed form on rings and paths and from NOI
// elsewhere. maxRounds caps the CAPFOREST rounds: a cycle that
// contraction leaves costs one round per vertex without the series
// reduction.
var placementCases = []struct {
	name      string
	lambda    int64
	maxRounds int
	build     func() *graph.Graph
}{
	{"rhg_lc_2^11_deg32", 12, 6, func() *graph.Graph { return mustLC(gen.RHG(1<<11, 32, 5, 3)) }},
	{"ba_pair_k25_x3", 3, 6, func() *graph.Graph {
		parts := []*graph.Graph{gen.BarabasiAlbert(2048, 25, 41), gen.BarabasiAlbert(2048, 25, 42)}
		return gen.AssembleWeaklyLinked(parts, []int{3}, 43)
	}},
	{"rmat_core_k10", 1, 6, func() *graph.Graph {
		parts := make([]*graph.Graph, 3)
		for i := range parts {
			parts[i], _ = kcore.LargestComponentOfKCore(gen.RMATDefault(11, 16, 51+uint64(i)), 10)
		}
		g, _ := kcore.LargestComponentOfKCore(gen.AssembleWeaklyLinked(parts, []int{1, 2}, 54), 10)
		return g
	}},
	{"ring_64xK8", 2, 2, func() *graph.Graph { return gen.RingOfCliques(64, 8) }},
	{"ring_512xK16", 2, 2, func() *graph.Graph { return gen.RingOfCliques(512, 16) }},
	{"ring_256", 2, 0, func() *graph.Graph { return gen.Ring(256) }},
	{"ring_16384", 2, 0, func() *graph.Graph { return gen.Ring(1 << 14) }},
	{"path_4096", 1, 0, func() *graph.Graph { return gen.Path(4096) }},
	{"cycle_300_tied", 2, 0, tiedCycle},
	{"starofcycles_16_64", 2, 0, func() *graph.Graph { return gen.StarOfCycles(16, 64) }},
	{"theta_20_30_40", 6, 0, thetaGraph},
	{"k5_two_chains", 5, 1, k5TwoChains},
}

// VieCut runs on the graph round 1 leaves. The answer must not depend on
// that placement, on the worker count or on the seed; VieCut must run
// exactly when round 1 and the series reduction leave more than two
// vertices (which is exactly when a second round runs), and not at all
// when disabled.
func TestVieCutPlacement(t *testing.T) {
	for _, tc := range placementCases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			for _, workers := range []int{1, 2, 4} {
				for _, disable := range []bool{false, true} {
					for seed := uint64(1); seed <= 3; seed++ {
						opts := defaultOpts(workers)
						opts.DisableVieCut = disable
						opts.Seed = seed
						res, err := ParallelMinimumCut(context.Background(), g, opts)
						if err != nil {
							t.Fatal(err)
						}
						if res.Value != tc.lambda {
							t.Fatalf("workers=%d disable=%v seed=%d: value %d, want %d",
								workers, disable, seed, res.Value, tc.lambda)
						}
						if res.Rounds > tc.maxRounds {
							t.Fatalf("workers=%d disable=%v seed=%d: %d rounds, want at most %d",
								workers, disable, seed, res.Rounds, tc.maxRounds)
						}
						if err := verify.ValidateWitness(g, res.Side, res.Value); err != nil {
							t.Fatalf("workers=%d disable=%v seed=%d: %v", workers, disable, seed, err)
						}
						if disable {
							if res.VieCutValue != 0 || res.Timing.VieCut != 0 {
								t.Fatalf("workers=%d seed=%d: VieCut disabled but VieCutValue=%d Timing.VieCut=%v",
									workers, seed, res.VieCutValue, res.Timing.VieCut)
							}
							continue
						}
						if ran := res.VieCutValue > 0; ran != (res.Rounds >= 2) {
							t.Fatalf("workers=%d seed=%d: VieCutValue=%d after %d rounds",
								workers, seed, res.VieCutValue, res.Rounds)
						}
						if res.VieCutValue > 0 && res.VieCutValue < res.Value {
							t.Fatalf("workers=%d seed=%d: VieCutValue %d below the minimum cut %d",
								workers, seed, res.VieCutValue, res.Value)
						}
					}
				}
			}
		})
	}
}

// tiedCycle is a weighted 300-cycle whose three lightest edges tie at
// weight 1, so λ = 2 and the witness has a choice to make.
func tiedCycle() *graph.Graph {
	b := graph.NewBuilder(300)
	for i := int32(0); i < 300; i++ {
		w := int64(4 + i*7%9)
		if i == 10 || i == 150 || i == 299 {
			w = 1
		}
		b.AddEdge(i, (i+1)%300, w)
	}
	return b.MustBuild()
}

// thetaGraph joins hubs 0 and 1 by three weighted chains of 20, 30 and 40
// edges.
func thetaGraph() *graph.Graph {
	b := graph.NewBuilder(2 + 19 + 29 + 39)
	next := int32(2)
	for c, edges := range []int{20, 30, 40} {
		prev := int32(0)
		for i := 0; i < edges; i++ {
			v := int32(1)
			if i+1 < edges {
				v = next
				next++
			}
			b.AddEdge(prev, v, int64(3+(5*i+3*c)%11))
			prev = v
		}
	}
	return b.MustBuild()
}

// k5TwoChains is K5 with weight-4 edges, two of which are subdivided into
// weighted chains.
func k5TwoChains() *graph.Graph {
	b := graph.NewBuilder(9)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if (u == 0 && v == 1) || (u == 2 && v == 3) {
				continue
			}
			b.AddEdge(u, v, 4)
		}
	}
	b.AddEdge(0, 5, 5)
	b.AddEdge(5, 6, 2)
	b.AddEdge(6, 7, 6)
	b.AddEdge(7, 1, 3)
	b.AddEdge(2, 8, 4)
	b.AddEdge(8, 3, 7)
	return b.MustBuild()
}
