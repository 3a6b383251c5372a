package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/verify"
)

// placementCases pins λ (computed with NOI) on inputs that round 1
// leaves in different states: λ = δ, where VieCut only confirms the
// bound; λ < δ, where VieCut on the contracted graph lowers it; a ring of
// cliques and a ring, where round 1 contracts little; and a path, where
// round 1 finishes the solve and VieCut must not run.
var placementCases = []struct {
	name   string
	lambda int64
	build  func() *graph.Graph
}{
	{"rhg_lc_2^11_deg32", 12, func() *graph.Graph { return mustLC(gen.RHG(1<<11, 32, 5, 3)) }},
	{"ba_pair_k25_x3", 3, func() *graph.Graph {
		parts := []*graph.Graph{gen.BarabasiAlbert(2048, 25, 41), gen.BarabasiAlbert(2048, 25, 42)}
		return gen.AssembleWeaklyLinked(parts, []int{3}, 43)
	}},
	{"rmat_core_k10", 1, func() *graph.Graph {
		parts := make([]*graph.Graph, 3)
		for i := range parts {
			parts[i], _ = kcore.LargestComponentOfKCore(gen.RMATDefault(11, 16, 51+uint64(i)), 10)
		}
		g, _ := kcore.LargestComponentOfKCore(gen.AssembleWeaklyLinked(parts, []int{1, 2}, 54), 10)
		return g
	}},
	{"ring_64xK8", 2, func() *graph.Graph { return ringOfCliques(64, 8) }},
	{"ring_256", 2, func() *graph.Graph { return gen.Ring(256) }},
	{"path_4096", 1, func() *graph.Graph { return gen.Path(4096) }},
}

// VieCut runs on the graph round 1 leaves. The answer must not depend on
// that placement, on the worker count or on the seed; VieCut must run
// exactly when round 1 leaves more than two vertices (which is exactly
// when a second round runs), and not at all when disabled.
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

// ringOfCliques joins k unit-weight cliques of s vertices into a ring by
// single edges: λ = 2, δ = s-1.
func ringOfCliques(k, s int) *graph.Graph {
	b := graph.NewBuilder(k * s)
	for c := 0; c < k; c++ {
		base := int32(c * s)
		for i := int32(0); i < int32(s); i++ {
			for j := i + 1; j < int32(s); j++ {
				b.AddEdge(base+i, base+j, 1)
			}
		}
		b.AddEdge(base+int32(s-1), int32((c+1)%k*s), 1)
	}
	return b.MustBuild()
}
