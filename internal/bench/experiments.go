package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/noi"
	"repro/internal/pq"
	"repro/internal/viecut"
)

// Fig2 regenerates the paper's Figure 2: running time per edge (ns) of
// the sequential algorithms on random hyperbolic graphs, one table per
// average degree, one row per vertex-count scale. Returns the raw
// measurements for reuse (Figure 4).
func Fig2(w io.Writer, s Scale) []Measurement {
	header(w, "Figure 2: ns/edge on RHG graphs (power-law exponent 5)")
	instances := RHGInstances(s)
	algos := SequentialAlgos()
	var all []Measurement
	byInstance := map[string][]Measurement{}
	for _, inst := range instances {
		if s.Cancelled() {
			fmt.Fprintln(w, "(interrupted: partial results above)")
			break
		}
		for _, a := range algos {
			m := Time(inst.Name, inst.G, a, s.Reps, s.Seed)
			all = append(all, m)
			byInstance[inst.Name] = append(byInstance[inst.Name], m)
		}
		checkAgreement(byInstance[inst.Name])
	}
	for _, de := range s.RHGDegExps {
		fmt.Fprintf(w, "\n-- average degree 2^%d --\n", de)
		cols := []any{"n"}
		for _, a := range algos {
			cols = append(cols, a.Name)
		}
		row(w, cols...)
		for _, sc := range s.RHGScales {
			name := fmt.Sprintf("rhg_%d_%d", sc, de)
			if len(byInstance[name]) == 0 {
				continue // instance skipped by cancellation
			}
			r := []any{fmt.Sprintf("2^%d", sc)}
			for _, a := range algos {
				r = append(r, findMeasurement(all, name, a.Name).NsPerEdge())
			}
			row(w, r...)
		}
	}
	return all
}

// Fig3 regenerates Figure 3: total running time on the (synthetic
// stand-ins for the) real-world k-core instances, normalized by
// NOIλ̂-Heap-VieCut, ordered by edge count.
func Fig3(w io.Writer, s Scale) []Measurement {
	header(w, "Figure 3: normalized running time on web/social k-cores")
	instances := CoreInstances(s)
	sort.Slice(instances, func(i, j int) bool {
		return instances[i].G.NumEdges() < instances[j].G.NumEdges()
	})
	algos := SequentialAlgos()
	var all []Measurement
	cols := []any{"instance", "n", "m"}
	for _, a := range algos {
		cols = append(cols, a.Name)
	}
	row(w, cols...)
	for _, inst := range instances {
		var ms []Measurement
		if s.Cancelled() {
			fmt.Fprintln(w, "(interrupted: partial results above)")
			break
		}
		for _, a := range algos {
			ms = append(ms, Time(inst.Name, inst.G, a, s.Reps, s.Seed))
		}
		checkAgreement(ms)
		all = append(all, ms...)
		ref := findMeasurement(ms, inst.Name, "NOIl-Heap-VieCut").Elapsed
		r := []any{inst.Name, inst.G.NumVertices(), inst.G.NumEdges()}
		for _, a := range algos {
			m := findMeasurement(ms, inst.Name, a.Name)
			r = append(r, float64(m.Elapsed)/float64(ref))
		}
		row(w, r...)
	}
	fmt.Fprintln(w, "(cells: slowdown relative to NOIl-Heap-VieCut; 1.00 = reference)")
	return all
}

// Fig4 regenerates Figure 4: the performance profile t_best/t_algo over
// all instances of Figures 2 and 3, sorted ascending per algorithm.
func Fig4(w io.Writer, ms []Measurement) {
	header(w, "Figure 4: performance profile over all instances")
	prof := PerformanceProfile(ms)
	names := make([]string, 0, len(prof))
	for name := range prof {
		names = append(names, name)
	}
	sort.Strings(names)
	row(w, "algorithm", "instances", "fastest", ">=0.8", ">=0.5", ">=0.2", "geo-mean")
	for _, name := range names {
		rs := prof[name]
		fastest, ge8, ge5, ge2 := 0, 0, 0, 0
		logSum := 0.0
		for _, r := range rs {
			if r >= 0.999 {
				fastest++
			}
			if r >= 0.8 {
				ge8++
			}
			if r >= 0.5 {
				ge5++
			}
			if r >= 0.2 {
				ge2++
			}
			if r > 0 {
				logSum += math.Log(r)
			}
		}
		row(w, name, len(rs), fastest, ge8, ge5, ge2, math.Exp(logSum/float64(len(rs))))
	}
	fmt.Fprintln(w, "(counts of instances with t_best/t_algo above each threshold; higher = better)")
}

// Fig5 regenerates Figure 5: scaling of the parallel algorithm on five
// large graphs. The top block reports self-relative speedup (vs 1
// worker), the bottom block speedup against NOI-HNSS and against the
// fastest sequential variant, exactly the two rows of the paper's figure.
func Fig5(w io.Writer, s Scale) {
	header(w, "Figure 5: shared-memory scaling")
	instances := ScalingInstances(s)
	kinds := []pq.Kind{pq.KindBStack, pq.KindBQueue, pq.KindHeap}
	workerCounts := MaxWorkers()

	for _, inst := range instances {
		if s.Cancelled() {
			fmt.Fprintln(w, "(interrupted: partial results above)")
			return
		}
		lr, _ := core.ParallelMinimumCut(context.Background(), inst.G, core.Options{Queue: pq.KindBQueue, Bounded: true, Seed: s.Seed})
		lambda := lr.Value
		fmt.Fprintf(w, "\n-- %s (n=%d m=%d lambda=%d) --\n", inst.Name, inst.G.NumVertices(), inst.G.NumEdges(), lambda)

		// Sequential references.
		hnss := Time(inst.Name, inst.G, SequentialAlgos()[1], s.Reps, s.Seed) // NOI-HNSS
		bestSeq := hnss.Elapsed
		bestSeqName := "NOI-HNSS"
		for _, a := range SequentialAlgos()[2:] {
			m := Time(inst.Name, inst.G, a, s.Reps, s.Seed)
			if m.Elapsed < bestSeq {
				bestSeq, bestSeqName = m.Elapsed, a.Name
			}
		}
		fmt.Fprintf(w, "sequential: NOI-HNSS %v, fastest %s %v\n", hnss.Elapsed.Round(time.Microsecond), bestSeqName, bestSeq.Round(time.Microsecond))

		cols := []any{"p"}
		for _, k := range kinds {
			cols = append(cols, "ParCutl-"+k.String())
		}
		row(w, append(cols, "speedup-vs-best-seq(BQueue)", "vs-NOI-HNSS")...)
		base := map[pq.Kind]time.Duration{}
		for _, p := range workerCounts {
			r := []any{p}
			var bq time.Duration
			for _, k := range kinds {
				m := Time(inst.Name, inst.G, ParallelAlgo(k, p, false), s.Reps, s.Seed)
				if p == 1 {
					base[k] = m.Elapsed
				}
				r = append(r, float64(base[k])/float64(m.Elapsed)) // self-speedup
				if k == pq.KindBQueue {
					bq = m.Elapsed
				}
			}
			r = append(r, float64(bestSeq)/float64(bq), float64(hnss.Elapsed)/float64(bq))
			row(w, r...)
		}
		fmt.Fprintln(w, "(ParCut columns: speedup vs same variant at p=1)")
	}
}

// Table1 regenerates the paper's Table 1: statistics of the k-core
// benchmark instances, including their exact minimum cut λ and minimum
// degree δ.
func Table1(w io.Writer, s Scale) {
	header(w, "Table 1: web/social k-core instance statistics")
	row(w, "graph", "base-n", "base-m", "k", "core-n", "core-m", "lambda", "delta")
	for _, inst := range CoreInstances(s) {
		if s.Cancelled() {
			fmt.Fprintln(w, "(interrupted: partial results above)")
			return
		}
		lr, _ := core.ParallelMinimumCut(context.Background(), inst.G, core.Options{Queue: pq.KindBQueue, Bounded: true, Seed: s.Seed})
		lambda := lr.Value
		_, delta := inst.G.MinDegreeVertex()
		row(w, inst.Name, inst.BaseN, inst.BaseM, inst.K,
			inst.G.NumVertices(), inst.G.NumEdges(), lambda, delta)
	}
}

// ParCutMeasurement is one ParCutλ̂-BQueue timing of the VieCut ablation:
// an instance, its minimum degree δ and minimum cut λ, the worker count,
// whether VieCut ran, and the median and quartiles of rowSeeds solves
// with consecutive seeds. The collected slice is the
// BENCH_parcut.json baseline.
type ParCutMeasurement struct {
	Instance string  `json:"instance"`
	N        int     `json:"n"`
	M        int     `json:"m"`
	Delta    int64   `json:"delta"`
	Lambda   int64   `json:"lambda"`
	Workers  int     `json:"workers"`
	VieCut   bool    `json:"viecut"`
	Millis   float64 `json:"ms"`
	Q1Millis float64 `json:"q1_ms"`
	Q3Millis float64 `json:"q3_ms"`
}

// rowSeeds is the number of runs, with consecutive seeds, behind each
// ParCutMeasurement and CactusMeasurement. Five samples have exact
// quartiles: the second, third and fourth smallest.
const rowSeeds = 5

// Ablation quantifies the paper's §4.2 mechanism claims: priority-queue
// traffic saved by the λ̂ bound, and the geometric-mean speedups of the
// engineered variants over NOI-HNSS. Every NOI variant, NOI-HNSS
// included, runs the same series reduction of degree-2 chains, so the
// speedups measure only the priority queues and the VieCut bound. Its
// last table times ParCutλ̂-BQueue with and without VieCut on the k-core
// and scaling instances at one and at GOMAXPROCS workers; those rows are
// returned for WriteJSON.
func Ablation(w io.Writer, s Scale) []ParCutMeasurement {
	header(w, "Ablation: bounded priority queues and the VieCut bound (§4.2)")
	instances := CoreInstances(s)

	row(w, "instance", "unbounded-updates", "bounded-updates", "capped-skips", "saved%")
	for _, inst := range instances {
		if s.Cancelled() {
			fmt.Fprintln(w, "(interrupted: partial results above)")
			return nil
		}
		ub := noi.MinimumCut(inst.G, noi.Options{Queue: pq.KindHeap, Bounded: false, Seed: s.Seed})
		bd := noi.MinimumCut(inst.G, noi.Options{Queue: pq.KindHeap, Bounded: true, Seed: s.Seed})
		if ub.Value != bd.Value {
			panic(fmt.Sprintf("bench: ablation disagreement on %s", inst.Name))
		}
		saved := 0.0
		if ub.Stats.Updates > 0 {
			saved = 100 * (1 - float64(bd.Stats.Updates)/float64(ub.Stats.Updates))
		}
		row(w, inst.Name, ub.Stats.Updates, bd.Stats.Updates, bd.Stats.CappedSkips, saved)
	}

	times := map[string]map[string]time.Duration{}
	algos := SequentialAlgos()
	for _, inst := range instances {
		for _, a := range algos {
			m := Time(inst.Name, inst.G, a, s.Reps, s.Seed)
			if times[a.Name] == nil {
				times[a.Name] = map[string]time.Duration{}
			}
			times[a.Name][inst.Name] = m.Elapsed
		}
	}
	fmt.Fprintln(w)
	row(w, "comparison", "geo-mean speedup")
	row(w, "NOIl-Heap vs NOI-HNSS", GeometricMeanSpeedup(times["NOI-HNSS"], times["NOIl-Heap"]))
	row(w, "NOIl-BStack vs NOIl-Heap", GeometricMeanSpeedup(times["NOIl-Heap"], times["NOIl-BStack"]))
	row(w, "NOIl-Heap-VieCut vs NOIl-Heap", GeometricMeanSpeedup(times["NOIl-Heap"], times["NOIl-Heap-VieCut"]))
	row(w, "NOIl-Heap-VieCut vs NOI-HNSS", GeometricMeanSpeedup(times["NOI-HNSS"], times["NOIl-Heap-VieCut"]))

	// VieCut quality: how often the inexact bound equals λ (§3.1.1 "in
	// most cases it already finds the minimum cut").
	fmt.Fprintln(w)
	row(w, "instance", "lambda", "VieCut-bound", "exact?")
	for _, inst := range instances {
		vc := viecut.Run(inst.G, viecut.Options{Seed: s.Seed})
		lambda := noi.MinimumCut(inst.G, noi.Options{Queue: pq.KindBStack, Bounded: true, Seed: s.Seed}).Value
		row(w, inst.Name, lambda, vc.Value, vc.Value == lambda)
	}

	// Contraction scheme ablation (§3.2): the scatter pipeline on one
	// worker vs GOMAXPROCS workers, on a label-propagation clustering of
	// the largest instance.
	big := instances[0].G
	for _, inst := range instances[1:] {
		if inst.G.NumEdges() > big.NumEdges() {
			big = inst.G
		}
	}
	labels := viecut.LabelPropagation(big, 2, 0, s.Seed)
	m := graph.NewMappingFromLabels(labels)
	fmt.Fprintln(w)
	row(w, "contraction scheme", "time")
	for _, variant := range []struct {
		name string
		run  func()
	}{
		{"sequential (1 worker)", func() { big.Contract(m) }},
		{"parallel scatter (engineered)", func() { big.ContractParallel(m, 0) }},
	} {
		var total time.Duration
		for i := 0; i < s.Reps; i++ {
			start := time.Now()
			variant.run()
			total += time.Since(start)
		}
		row(w, variant.name, total/time.Duration(s.Reps))
	}

	return parCutVieCutTable(w, s, instances)
}

// parCutVieCutTable times ParCutλ̂-BQueue with VieCut and with
// DisableVieCut on the k-core and scaling instances, at one worker and at
// GOMAXPROCS workers, each row over rowSeeds seeds. It panics if two
// solves of an instance disagree on λ.
func parCutVieCutTable(w io.Writer, s Scale, cores []CoreInstance) []ParCutMeasurement {
	instances := make([]Instance, 0, len(cores))
	for _, c := range cores {
		instances = append(instances, Instance{Name: c.Name, G: c.G})
	}
	instances = append(instances, ScalingInstances(s)...)
	workerCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerCounts = append(workerCounts, p)
	}

	fmt.Fprintln(w)
	row(w, "instance", "n", "m", "delta", "lambda", "workers", "viecut", "ms", "q1_ms", "q3_ms")
	var out []ParCutMeasurement
	for _, inst := range instances {
		if s.Cancelled() {
			fmt.Fprintln(w, "(interrupted: partial results above)")
			break
		}
		_, delta := inst.G.MinDegreeVertex()
		for _, workers := range workerCounts {
			var lambda int64
			for _, vieCut := range []bool{true, false} {
				a := ParallelAlgo(pq.KindBQueue, workers, !vieCut)
				ms := make([]float64, rowSeeds)
				for i := range ms {
					m := Time(inst.Name, inst.G, a, 1, s.Seed+uint64(i))
					ms[i] = float64(m.Elapsed.Microseconds()) / 1000
					if vieCut && i == 0 {
						lambda = m.Value
					} else if m.Value != lambda {
						panic(fmt.Sprintf("bench: %s at %d workers: ParCut λ=%d, then %d with viecut=%v and seed %d",
							inst.Name, workers, lambda, m.Value, vieCut, s.Seed+uint64(i)))
					}
				}
				sort.Float64s(ms)
				r := ParCutMeasurement{
					Instance: inst.Name, N: inst.G.NumVertices(), M: inst.G.NumEdges(),
					Delta: delta, Lambda: lambda, Workers: workers, VieCut: vieCut,
					Millis: ms[2], Q1Millis: ms[1], Q3Millis: ms[3],
				}
				out = append(out, r)
				row(w, r.Instance, r.N, r.M, r.Delta, r.Lambda, r.Workers, r.VieCut, r.Millis, r.Q1Millis, r.Q3Millis)
			}
		}
	}
	return out
}

func checkAgreement(ms []Measurement) {
	if len(ms) == 0 {
		return
	}
	want := ms[0].Value
	for _, m := range ms[1:] {
		if m.Value != want {
			panic(fmt.Sprintf("bench: exact algorithms disagree on %s: %s=%d vs %s=%d",
				m.Instance, ms[0].Algo, want, m.Algo, m.Value))
		}
	}
}

func findMeasurement(ms []Measurement, inst, algo string) Measurement {
	for _, m := range ms {
		if m.Instance == inst && m.Algo == algo {
			return m
		}
	}
	panic(fmt.Sprintf("bench: no measurement for %s/%s", inst, algo))
}
