// Package bench contains the experiment harness that regenerates every
// table and figure of the paper's evaluation (§4): workload construction,
// algorithm registry, timing, and the paper's presentation formats
// (running time per edge, normalized running times, performance profiles,
// scaling curves, instance statistics).
//
// Absolute numbers differ from the paper's Xeon E5-2643v4 testbed; the
// harness exists to reproduce the *shape* of each result: which algorithm
// wins, by what factor, and where the crossovers fall. README's cmd/bench
// entry lists the experiments.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/noi"
	"repro/internal/pq"
	"repro/internal/viecut"
)

// Algo is a named minimum-cut implementation entry in the registry.
type Algo struct {
	Name string
	Run  func(g *graph.Graph, seed uint64) int64
}

// SequentialAlgos returns the algorithm set of the paper's sequential
// experiments (Figures 2–4). NOI-CGKLS, a second C implementation of the
// same unbounded-heap algorithm in the paper, is represented by NOI-HNSS.
func SequentialAlgos() []Algo {
	return []Algo{
		{"HO", func(g *graph.Graph, _ uint64) int64 {
			v, _ := flow.HaoOrlin(g)
			return v
		}},
		{"NOI-HNSS", noiAlgo(pq.KindHeap, false, false)},
		{"NOIl-BStack", noiAlgo(pq.KindBStack, true, false)},
		{"NOIl-BQueue", noiAlgo(pq.KindBQueue, true, false)},
		{"NOIl-Heap", noiAlgo(pq.KindHeap, true, false)},
		{"NOI-HNSS-VieCut", noiAlgo(pq.KindHeap, false, true)},
		{"NOIl-Heap-VieCut", noiAlgo(pq.KindHeap, true, true)},
	}
}

func noiAlgo(kind pq.Kind, bounded, withVieCut bool) func(*graph.Graph, uint64) int64 {
	return func(g *graph.Graph, seed uint64) int64 {
		opts := noi.Options{Queue: kind, Bounded: bounded, Seed: seed}
		if withVieCut {
			vc := viecut.Run(g, viecut.Options{Seed: seed})
			opts.InitialBound, opts.InitialSide = vc.Value, vc.Side
		}
		return noi.MinimumCut(g, opts).Value
	}
}

// ParallelAlgo returns the paper's ParCutλ̂ variant for the given queue;
// disableVieCut drops its VieCut bound (the ablation arm).
func ParallelAlgo(kind pq.Kind, workers int, disableVieCut bool) Algo {
	return Algo{
		Name: "ParCutl-" + kind.String(),
		Run: func(g *graph.Graph, seed uint64) int64 {
			r, _ := core.ParallelMinimumCut(context.Background(), g, core.Options{
				Workers: workers, Queue: kind, Bounded: true, DisableVieCut: disableVieCut, Seed: seed,
			})
			return r.Value
		},
	}
}

// Measurement is one timed algorithm execution on one instance.
type Measurement struct {
	Instance string
	Algo     string
	Value    int64
	Elapsed  time.Duration
	Edges    int
}

// NsPerEdge is the paper's Figure 2 metric.
func (m Measurement) NsPerEdge() float64 {
	return float64(m.Elapsed.Nanoseconds()) / float64(m.Edges)
}

// Time runs algo on g reps times (the paper averages 5 repetitions) and
// returns the measurement with the average duration. It checks that every
// repetition returns the same value and panics otherwise — a built-in
// cross-validation of the harness itself.
func Time(inst string, g *graph.Graph, a Algo, reps int, seed uint64) Measurement {
	if reps < 1 {
		reps = 1
	}
	var total time.Duration
	var value int64
	for i := 0; i < reps; i++ {
		start := time.Now()
		v := a.Run(g, seed+uint64(i))
		total += time.Since(start)
		if i == 0 {
			value = v
		} else if v != value {
			panic(fmt.Sprintf("bench: %s on %s: value %d != %d across repetitions", a.Name, inst, v, value))
		}
	}
	return Measurement{
		Instance: inst, Algo: a.Name, Value: value,
		Elapsed: total / time.Duration(reps), Edges: g.NumEdges(),
	}
}

// GeometricMeanSpeedup returns the geometric mean of base/other per
// instance, the statistic behind the paper's §4.2 claims ("average
// geometric speedup factor of 1.34").
func GeometricMeanSpeedup(base, other map[string]time.Duration) float64 {
	var logSum float64
	count := 0
	for inst, b := range base {
		o, ok := other[inst]
		if !ok || o <= 0 || b <= 0 {
			continue
		}
		logSum += math.Log(float64(b) / float64(o))
		count++
	}
	if count == 0 {
		return 1
	}
	return math.Exp(logSum / float64(count))
}

// PerformanceProfile computes the paper's Figure 4 presentation: for each
// algorithm the sorted ratios t_best/t_algo across instances (1 = this
// algorithm was the fastest on the instance; near 0 = far off the best).
func PerformanceProfile(ms []Measurement) map[string][]float64 {
	best := map[string]time.Duration{}
	for _, m := range ms {
		if cur, ok := best[m.Instance]; !ok || m.Elapsed < cur {
			best[m.Instance] = m.Elapsed
		}
	}
	prof := map[string][]float64{}
	for _, m := range ms {
		r := 0.0
		if m.Elapsed > 0 {
			r = float64(best[m.Instance]) / float64(m.Elapsed)
		}
		prof[m.Algo] = append(prof[m.Algo], r)
	}
	for _, v := range prof {
		sort.Float64s(v)
	}
	return prof
}

// MaxWorkers returns the thread counts used by the scaling experiment:
// 1, 2, 4, ... up to GOMAXPROCS (always including GOMAXPROCS).
func MaxWorkers() []int {
	maxP := runtime.GOMAXPROCS(0)
	var out []int
	for p := 1; p < maxP; p *= 2 {
		out = append(out, p)
	}
	return append(out, maxP)
}

// Tabular output helpers shared by the experiment runners.

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

func row(w io.Writer, cols ...any) {
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(w, "%.2f", v)
		default:
			fmt.Fprintf(w, "%v", v)
		}
	}
	fmt.Fprintln(w)
}

// WriteJSON writes the measurements of Ablation or CactusBench as a
// BENCH_*.json baseline: an indented JSON array, stable across runs up
// to timing noise.
func WriteJSON(path string, rows any) error {
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
