package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cactus"
	"repro/internal/gen"
	"repro/internal/graph"
)

// CactusMeasurement is one all-minimum-cuts timing: an instance, the
// worker count, and the resulting cut family statistics with the
// enumerate/assemble phase split. The collected slice is the
// BENCH_cactus.json baseline tracking the cactus subsystem across PRs.
type CactusMeasurement struct {
	Instance string `json:"instance"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	// Workers is the worker bound the row ran with (the KT enumeration
	// shards its steps across them).
	Workers int     `json:"workers"`
	Lambda  int64   `json:"lambda"`
	Cuts    int     `json:"cuts"`
	Kernel  int     `json:"kernel_vertices"`
	Millis  float64 `json:"ms"`
	// LambdaMillis, KernelizeMillis, EnumerateMillis and AssembleMillis
	// split Millis into the pipeline's phases (cactus.PhaseTimings): the
	// λ solve, the all-cuts kernelization, the cut enumeration and the
	// post-enumeration assembly (canonical sort, cactus construction,
	// lift).
	LambdaMillis    float64 `json:"lambda_ms"`
	KernelizeMillis float64 `json:"kernelize_ms"`
	EnumerateMillis float64 `json:"enumerate_ms"`
	AssembleMillis  float64 `json:"assemble_ms"`
}

// cactusInstance is a named generator so instances are built lazily and
// deterministically.
type cactusInstance struct {
	name string
	g    *graph.Graph
}

func cactusInstances(s Scale) []cactusInstance {
	unit := s.CoreBase >> 7 // 128 at SmallScale
	if unit < 64 {
		unit = 64
	}
	rnd := gen.ConnectedGNM(2*unit, 6*unit, s.Seed*101)
	return []cactusInstance{
		// Random sparse: few cuts, enumeration dominated by flows.
		{name: fmt.Sprintf("gnm_%d_%d", 2*unit, 6*unit), g: rnd},
		// Cycle-heavy: unit rings, Θ(n²) minimum cuts, nothing for the
		// kernelization to contract — the KT worst case, and the scaling
		// story for the sharded enumeration and the word-parallel
		// assembly. ring_1024 entered the matrix once the transposed
		// assembly could afford it.
		{name: fmt.Sprintf("ring_%d", 8*unit), g: gen.Ring(8 * unit)},
		{name: fmt.Sprintf("ring_%d", 4*unit), g: gen.Ring(4 * unit)},
		{name: fmt.Sprintf("ring_%d", 2*unit), g: gen.Ring(2 * unit)},
		{name: fmt.Sprintf("ring_%d", unit), g: gen.Ring(unit)},
		// Kernel-heavy: clique chain, the kernel collapses to a path.
		{name: fmt.Sprintf("cliquechain_%d_8", unit/8), g: gen.CliqueChain(unit/8, 8)},
		// Many cycles sharing a node: one small crossing class per cycle.
		{name: fmt.Sprintf("starofcycles_8_%d", unit/8), g: gen.StarOfCycles(8, unit/8)},
		{name: fmt.Sprintf("starofcycles_16_%d", unit/2), g: gen.StarOfCycles(16, unit/2)},
		// perfbench allcuts' shape: the λ solve contracts the cliques and
		// folds the ring they leave; the kernel is the ring.
		{name: fmt.Sprintf("ringcliques_%d_16", 4*unit), g: gen.RingOfCliques(4*unit, 16)},
	}
}

// CactusBench times AllMinCuts per instance and worker count and prints
// the table; the returned measurements feed WriteJSON. Every instance
// runs at workers ∈ {1, GOMAXPROCS} (one row each, collapsed when they
// coincide), so the committed baseline shows the parallel speedup next
// to the single-core trajectory. A non-empty only restricts the run to
// instances whose name contains it (the CI bench smoke times one small
// ring).
func CactusBench(w io.Writer, s Scale, only string) []CactusMeasurement {
	header(w, "cactus: all minimum cuts (KT)")
	row(w, "instance", "n", "m", "workers", "lambda", "cuts", "kernel", "lambda_ms", "kern_ms", "enum_ms", "asm_ms", "ms")
	workerCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerCounts = append(workerCounts, p)
	}
	var out []CactusMeasurement
	for _, inst := range cactusInstances(s) {
		if only != "" && !strings.Contains(inst.name, only) {
			continue
		}
		if s.Cancelled() {
			fmt.Fprintln(w, "(interrupted: partial results above)")
			break
		}
		for _, workers := range workerCounts {
			best := time.Duration(1<<63 - 1)
			var res *cactus.Result
			for rep := 0; rep < s.Reps; rep++ {
				start := time.Now()
				r, err := cactus.AllMinCuts(context.Background(), inst.g, cactus.Options{
					Seed: s.Seed + uint64(rep), Workers: workers, NoMaterialize: true,
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s/workers=%d: %v\n", inst.name, workers, err)
					res = nil
					break
				}
				if d := time.Since(start); d < best {
					best = d
					res = r
				}
			}
			if res == nil {
				continue
			}
			m := CactusMeasurement{
				Instance:        inst.name,
				N:               inst.g.NumVertices(),
				M:               inst.g.NumEdges(),
				Workers:         workers,
				Lambda:          res.Lambda,
				Cuts:            res.Count,
				Kernel:          res.KernelVertices,
				Millis:          float64(best.Microseconds()) / 1000,
				LambdaMillis:    float64(res.Phases.Lambda.Microseconds()) / 1000,
				KernelizeMillis: float64(res.Phases.Kernelize.Microseconds()) / 1000,
				EnumerateMillis: float64(res.Phases.Enumerate.Microseconds()) / 1000,
				AssembleMillis:  float64(res.Phases.Assemble.Microseconds()) / 1000,
			}
			out = append(out, m)
			row(w, m.Instance, m.N, m.M, m.Workers, m.Lambda, m.Cuts, m.Kernel,
				m.LambdaMillis, m.KernelizeMillis, m.EnumerateMillis, m.AssembleMillis, m.Millis)
		}
	}
	return out
}
