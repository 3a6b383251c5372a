package bench_test

// Benchmarks that regenerate the paper's evaluation, one benchmark family
// per table/figure. `go test -bench . -benchmem` runs everything at a
// laptop scale; `cmd/bench` prints the corresponding full tables.
//
//	BenchmarkFig2_*   — Figure 2: sequential solvers on RHG graphs,
//	                    report ns/edge across the degree sweep.
//	BenchmarkFig3_*   — Figure 3: sequential solvers on web/social-like
//	                    k-core instances.
//	BenchmarkFig5_*   — Figure 5: the parallel solver across worker
//	                    counts on a large instance.
//	BenchmarkTable1_* — Table 1: instance preparation (k-core pipeline)
//	                    plus exact λ computation.
//	BenchmarkAblation_* — §4.2 design-choice ablations: priority bounding,
//	                    the VieCut bound, parallel vs sequential
//	                    contraction.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	mincut "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/noi"
	"repro/internal/pq"
	"repro/internal/viecut"
)

// Shared fixtures, built once.
var fixtures = struct {
	once    sync.Once
	rhg     map[string]*graph.Graph // keyed by "scale_degexp"
	cores   []bench.CoreInstance
	scaling *graph.Graph
}{}

func loadFixtures() {
	fixtures.once.Do(func() {
		fixtures.rhg = map[string]*graph.Graph{}
		for _, sc := range []int{12, 13} {
			for _, de := range []int{4, 6} {
				g := gen.RHG(1<<sc, float64(int(1)<<de), 5, uint64(sc*100+de))
				lc, _ := g.LargestComponent()
				fixtures.rhg[fmt.Sprintf("%d_%d", sc, de)] = lc
			}
		}
		fixtures.cores = bench.CoreInstances(bench.SmallScale())
		big := gen.RHG(1<<14, 64, 5, 9)
		fixtures.scaling, _ = big.LargestComponent()
	})
}

// BenchmarkFig2 measures each sequential algorithm on the RHG grid.
func BenchmarkFig2(b *testing.B) {
	loadFixtures()
	for key, g := range fixtures.rhg {
		for _, a := range bench.SequentialAlgos() {
			b.Run(fmt.Sprintf("rhg_%s/%s", key, a.Name), func(b *testing.B) {
				b.ReportMetric(float64(g.NumEdges()), "edges")
				for i := 0; i < b.N; i++ {
					a.Run(g, uint64(i))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
			})
		}
	}
}

// BenchmarkFig3 measures each sequential algorithm on the k-core set.
func BenchmarkFig3(b *testing.B) {
	loadFixtures()
	for _, inst := range fixtures.cores {
		g := inst.G
		for _, a := range bench.SequentialAlgos() {
			b.Run(fmt.Sprintf("%s/%s", inst.Name, a.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.Run(g, uint64(i))
				}
			})
		}
	}
}

// BenchmarkFig5 measures the parallel solver across worker counts
// (the paper's scaling experiment) on one RHG and one web-like instance.
func BenchmarkFig5(b *testing.B) {
	loadFixtures()
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"rhg_14_6", fixtures.scaling},
		{"core", fixtures.cores[0].G},
	}
	for _, inst := range instances {
		for _, workers := range bench.MaxWorkers() {
			for _, kind := range []pq.Kind{pq.KindBStack, pq.KindBQueue, pq.KindHeap} {
				b.Run(fmt.Sprintf("%s/p%d/%s", inst.name, workers, kind), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						core.ParallelMinimumCut(context.Background(), inst.g, core.Options{
							Workers: workers, Queue: kind, Bounded: true, Seed: uint64(i),
						})
					}
				})
			}
		}
	}
}

// BenchmarkTable1 measures the instance pipeline of Table 1: k-core
// decomposition, largest component, and the exact λ.
func BenchmarkTable1(b *testing.B) {
	base := gen.RMATDefault(13, 16, 5)
	b.Run("kcore-pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kcore.LargestComponentOfKCore(base, 10)
		}
	})
	g, _ := kcore.LargestComponentOfKCore(base, 10)
	b.Run("lambda", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ParallelMinimumCut(context.Background(), g, core.Options{Queue: pq.KindBQueue, Bounded: true, Seed: uint64(i)})
		}
	})
}

// BenchmarkAblation_PriorityBounding isolates the λ̂ cap of §3.1.2: the
// same solver with and without bounded keys.
func BenchmarkAblation_PriorityBounding(b *testing.B) {
	loadFixtures()
	g := fixtures.cores[len(fixtures.cores)-1].G // web-like, hub-heavy
	b.Run("unbounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			noi.MinimumCut(g, noi.Options{Queue: pq.KindHeap, Bounded: false, Seed: uint64(i)})
		}
	})
	b.Run("bounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			noi.MinimumCut(g, noi.Options{Queue: pq.KindHeap, Bounded: true, Seed: uint64(i)})
		}
	})
}

// BenchmarkAblation_VieCutBound isolates the λ̂ source of §3.1.1.
func BenchmarkAblation_VieCutBound(b *testing.B) {
	loadFixtures()
	g := fixtures.scaling
	b.Run("delta-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			noi.MinimumCut(g, noi.Options{Queue: pq.KindHeap, Bounded: true, Seed: uint64(i)})
		}
	})
	b.Run("viecut-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vc := viecut.Run(g, viecut.Options{Seed: uint64(i)})
			noi.MinimumCut(g, noi.Options{
				Queue: pq.KindHeap, Bounded: true, Seed: uint64(i),
				InitialBound: vc.Value, InitialSide: vc.Side,
			})
		}
	})
}

// BenchmarkAblation_Contraction isolates the parallel contraction of
// §3.2 against the sequential one on a label-propagation clustering.
func BenchmarkAblation_Contraction(b *testing.B) {
	loadFixtures()
	g := fixtures.scaling
	labels := viecut.LabelPropagation(g, 2, 0, 1)
	m := graph.NewMappingFromLabels(labels)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Contract(m)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.ContractParallel(m, 0)
		}
	})
}

// BenchmarkSolveDefault is the headline number: the full parallel solver
// on the largest fixture.
func BenchmarkSolveDefault(b *testing.B) {
	loadFixtures()
	g := fixtures.scaling
	b.ReportMetric(float64(g.NumEdges()), "edges")
	for i := 0; i < b.N; i++ {
		mincut.Solve(g, mincut.Options{Seed: uint64(i + 1)})
	}
}

// BenchmarkAllMinCuts measures the all-minimum-cuts pipeline across the
// regimes that stress it differently: random sparse (one or few cuts,
// flow-dominated), the unit ring (Θ(n²) cuts, nothing kernelizes — the
// KT motivation), the clique chain (kernel-heavy, laminar), and the star
// of cycles (many cycles sharing a node). cmd/bench -experiment cactus
// prints the corresponding table and emits the BENCH_cactus.json
// baseline.
func BenchmarkAllMinCuts(b *testing.B) {
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm_128_384", gen.ConnectedGNM(128, 384, 7)},
		{"ring_96", gen.Ring(96)},
		{"cliquechain_12_6", gen.CliqueChain(12, 6)},
		{"starofcycles_6_10", gen.StarOfCycles(6, 10)},
	}
	for _, inst := range instances {
		b.Run(inst.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				all, err := mincut.AllMinCuts(inst.g, mincut.AllCutsOptions{
					Seed: uint64(i + 1), NoMaterialize: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if all.Count == 0 {
					b.Fatal("no cuts found")
				}
			}
		})
	}
}
