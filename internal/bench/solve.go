package bench

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"repro/internal/baseline"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/pq"
)

// SolveMeasurement is one minimum-cut solve on one real instance from the
// dataset corpus. The collected slice is the BENCH_solve.json baseline:
// unlike the synthetic figure workloads, these rows are tied to named,
// reproducible instances (internal/datasets), so numbers stay comparable
// across PRs and machines running the same corpus.
type SolveMeasurement struct {
	Instance string  `json:"instance"`
	Source   string  `json:"source"` // "vendored" or "external"
	N        int     `json:"n"`
	M        int     `json:"m"`
	Solver   string  `json:"solver"`
	Lambda   int64   `json:"lambda"`
	Millis   float64 `json:"ms"`
}

// solveAlgos is the solver set timed on the real-instance corpus: the
// exact baseline, the best sequential NOI variant, and the parallel
// solver — one representative per layer of the implementation.
func solveAlgos() []Algo {
	return []Algo{
		{"StoerWagner", func(g *graph.Graph, _ uint64) int64 {
			v, _ := baseline.StoerWagner(g)
			return v
		}},
		{"NOIl-BStack", noiAlgo(pq.KindBStack, true, false)},
		ParallelAlgo(pq.KindBQueue, 0, false), // 0 workers = GOMAXPROCS
	}
}

// SolveBench loads every corpus instance (skipping absent external ones),
// times each solver on it, prints the table, and returns the measurements
// for WriteJSON. Solvers disagreeing on a cut value is a correctness
// bug, not timing noise, so it panics loudly.
func SolveBench(w io.Writer, s Scale) []SolveMeasurement {
	header(w, "solve: real-instance corpus (internal/datasets)")
	row(w, "instance", "source", "n", "m", "solver", "lambda", "ms")
	var out []SolveMeasurement
	for _, d := range datasets.All() {
		if s.Cancelled() {
			fmt.Fprintln(w, "(interrupted: partial results above)")
			break
		}
		g, err := d.Load()
		if err != nil {
			if !d.Vendored && errors.Is(err, fs.ErrNotExist) {
				fmt.Fprintf(os.Stderr, "bench: skipping %s: not present (set $%s)\n", d.Name, datasets.EnvDir)
				continue
			}
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", d.Name, err)
			continue
		}
		source := "external"
		if d.Vendored {
			source = "vendored"
		}
		var lambda int64
		for i, a := range solveAlgos() {
			m := Time(d.Name, g, a, s.Reps, s.Seed)
			if i == 0 {
				lambda = m.Value
			} else if m.Value != lambda {
				panic(fmt.Sprintf("bench: %s on %s: value %d != %d from %s",
					a.Name, d.Name, m.Value, lambda, solveAlgos()[0].Name))
			}
			if d.Lambda != 0 && m.Value != d.Lambda {
				panic(fmt.Sprintf("bench: %s on %s: value %d != catalogued lambda %d",
					a.Name, d.Name, m.Value, d.Lambda))
			}
			sm := SolveMeasurement{
				Instance: d.Name, Source: source,
				N: g.NumVertices(), M: g.NumEdges(),
				Solver: a.Name, Lambda: m.Value,
				Millis: float64(m.Elapsed.Microseconds()) / 1000,
			}
			out = append(out, sm)
			row(w, sm.Instance, sm.Source, sm.N, sm.M, sm.Solver, sm.Lambda, sm.Millis)
		}
	}
	return out
}
