package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/cactus"
	"repro/internal/gen"
	"repro/internal/graph"
)

// CactusMeasurement is one all-minimum-cuts timing: an instance, the
// worker count, and the resulting cut family statistics with the
// enumerate/assemble phase split and the bytes allocated. Each timing
// and alloc_mb is the median of rowSeeds runs with consecutive seeds,
// taken field by field, and q1_ms and q3_ms are the quartiles of the
// total. The collected slice is the BENCH_cactus.json baseline tracking
// the cactus subsystem across changes.
type CactusMeasurement struct {
	Instance string `json:"instance"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	// Workers is the worker bound the row ran with (the KT enumeration
	// shards its steps across them).
	Workers  int     `json:"workers"`
	Lambda   int64   `json:"lambda"`
	Cuts     int     `json:"cuts"`
	Kernel   int     `json:"kernel_vertices"`
	Millis   float64 `json:"ms"`
	Q1Millis float64 `json:"q1_ms"`
	Q3Millis float64 `json:"q3_ms"`
	// LambdaMillis, KernelizeMillis, EnumerateMillis and AssembleMillis
	// split Millis into the pipeline's phases (cactus.PhaseTimings): the
	// λ solve, the all-cuts kernelization, the cut enumeration and the
	// post-enumeration assembly (the chain merge and the lift).
	LambdaMillis    float64 `json:"lambda_ms"`
	KernelizeMillis float64 `json:"kernelize_ms"`
	EnumerateMillis float64 `json:"enumerate_ms"`
	AssembleMillis  float64 `json:"assemble_ms"`
	// AllocMB is the heap a run allocated (runtime.MemStats TotalAlloc),
	// in MB.
	AllocMB float64 `json:"alloc_mb"`
}

// cactusInstance is a named generator so instances are built lazily and
// deterministically. maxCuts, when positive, raises Options.MaxCuts for
// an instance with more than cactus.DefaultMaxCuts minimum cuts.
type cactusInstance struct {
	name    string
	g       *graph.Graph
	maxCuts int
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
		// story for the sharded enumeration and the chain merge. The two
		// largest exceed DefaultMaxCuts; a C×n cut matrix would take 0.5
		// and 4.3 GB for them at small scale.
		{name: fmt.Sprintf("ring_%d", 32*unit), g: gen.Ring(32 * unit), maxCuts: 32 * unit * (32*unit - 1) / 2},
		{name: fmt.Sprintf("ring_%d", 16*unit), g: gen.Ring(16 * unit), maxCuts: 16 * unit * (16*unit - 1) / 2},
		{name: fmt.Sprintf("ring_%d", 8*unit), g: gen.Ring(8 * unit)},
		{name: fmt.Sprintf("ring_%d", 4*unit), g: gen.Ring(4 * unit)},
		{name: fmt.Sprintf("ring_%d", 2*unit), g: gen.Ring(2 * unit)},
		{name: fmt.Sprintf("ring_%d", unit), g: gen.Ring(unit)},
		// Kernel-heavy: clique chain, the kernel collapses to a path.
		{name: fmt.Sprintf("cliquechain_%d_8", unit/8), g: gen.CliqueChain(unit/8, 8)},
		// Many cycles sharing a node: the merge reopens one cycle per arm.
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
	row(w, "instance", "n", "m", "workers", "lambda", "cuts", "kernel", "lambda_ms", "kern_ms", "enum_ms", "asm_ms", "ms", "q1_ms", "q3_ms", "alloc_mb")
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
			var res *cactus.Result
			var total, lam, kern, enum, asm, alloc [rowSeeds]float64
			for i := range rowSeeds {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				start := time.Now()
				r, err := cactus.AllMinCuts(context.Background(), inst.g, cactus.Options{
					Seed: s.Seed + uint64(i), Workers: workers, NoMaterialize: true, MaxCuts: inst.maxCuts,
				})
				d := time.Since(start)
				runtime.ReadMemStats(&after)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s/workers=%d: %v\n", inst.name, workers, err)
					res = nil
					break
				}
				res = r
				total[i], alloc[i] = millis(d), float64(after.TotalAlloc-before.TotalAlloc)/1e6
				lam[i], kern[i] = millis(r.Phases.Lambda), millis(r.Phases.Kernelize)
				enum[i], asm[i] = millis(r.Phases.Enumerate), millis(r.Phases.Assemble)
			}
			if res == nil {
				continue
			}
			for _, xs := range [][]float64{total[:], lam[:], kern[:], enum[:], asm[:], alloc[:]} {
				slices.Sort(xs)
			}
			// Five sorted samples: the median is the third, the quartiles
			// the second and fourth.
			m := CactusMeasurement{
				Instance:        inst.name,
				N:               inst.g.NumVertices(),
				M:               inst.g.NumEdges(),
				Workers:         workers,
				Lambda:          res.Lambda,
				Cuts:            res.Count,
				Kernel:          res.KernelVertices,
				Millis:          total[2],
				Q1Millis:        total[1],
				Q3Millis:        total[3],
				LambdaMillis:    lam[2],
				KernelizeMillis: kern[2],
				EnumerateMillis: enum[2],
				AssembleMillis:  asm[2],
				AllocMB:         alloc[2],
			}
			out = append(out, m)
			row(w, m.Instance, m.N, m.M, m.Workers, m.Lambda, m.Cuts, m.Kernel,
				m.LambdaMillis, m.KernelizeMillis, m.EnumerateMillis, m.AssembleMillis, m.Millis, m.Q1Millis, m.Q3Millis, m.AllocMB)
		}
	}
	return out
}

// millis converts d to milliseconds at microsecond resolution.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
