// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads through the public API or through HTTP, checks
// every answer, and prints its end-to-end metrics; with -trace 1 it
// prints per-layer metrics instead, measured by timing the benchmark's
// own calls into each layer's exported functions.
//
//	solve    a cold exact minimum cut per op (fresh Snapshot, MinCut) on
//	         the largest component of an RHG graph, 2^16 vertices
//	allcuts  AllMinCuts (NoMaterialize) on a ring of 512 16-cliques:
//	         130 816 minimum cuts
//	serve    cmd/mincutd on an RHG graph of 2^13 vertices: one connection
//	         writes 8-mutation batches, each followed by a read; a second
//	         connection sends 8 reads (GET /mincut?side=1) per write
//
// Each workload has one graph; the seed permutes its vertex ids and
// seeds the solvers and the writes. solve and allcuts alternate blocks
// of primary ops with blocks of writes: 8-mutation batches applied in
// process to a snapshot of the input that holds no certificate, so the
// write_* metrics exist on every workload.
//
// Usage, from the repository root (perfbench/run.sh builds the
// benchmark and cmd/mincutd, then runs it with the given arguments):
//
//	bash perfbench/run.sh -workload solve -seed 1 -seconds 20 -trace 0
//	bash perfbench/run.sh -record   # rewrite perfbench/fingerprints.json
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
// A wrong answer, a refused request or a transport error counts as
// failed and makes the command exit 1; so does an input whose
// fingerprint differs from the one recorded for its seed. An untraced
// run whose timed phase the host slowed by more than maxStealPct of CPU
// steal repeats it, and exits 1 without a result if no phase ran calm.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "solve, allcuts or serve")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "timed phase length in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	daemonBin := fs.String("daemon", ".bench_build/mincutd", "cmd/mincutd binary for the serve workload")
	workDir := fs.String("workdir", ".bench_build", "directory for scratch files and traces")
	record := fs.Bool("record", false, "rewrite perfbench/fingerprints.json (run from the repository root) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *record {
		if err := recordFingerprints(filepath.Join("perfbench", "fingerprints.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds ≥ 1 and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		sz: fullSizes, setupReps: 5, start: time.Now(),
		daemon: *daemonBin, workDir: *workDir, workers: runtime.GOMAXPROCS(0), out: os.Stdout,
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d workers=%d %s\n",
		e.workload, e.seed, *seconds, *trace, e.workers, runtime.Version())
	rep, err := runWorkload(ctx, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := printReport(e, rep)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, e *env) (*report, error) {
	switch e.workload {
	case "solve", "allcuts":
		return runInproc(ctx, e)
	case "serve":
		return runServe(ctx, e)
	}
	return nil, fmt.Errorf("unknown workload %q (want solve, allcuts or serve)", e.workload)
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints the human-readable report and returns the result:
// end-to-end metrics, or with tracing the per-layer ones.
func printReport(e *env, rep *report) result {
	errRate := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(e.out, "error_rate %.6g (%d failed or wrong of %d attempted)\n", errRate, rep.failed, rep.attempted)
	for _, w := range rep.wrong {
		fmt.Fprintln(e.out, "  failure:", w)
	}
	fmt.Fprintln(e.out, "end-to-end:")
	for i, m := range rep.e2e {
		line := fmt.Sprintf("  %-16s %12.4f %-5s %s", m.name, m.value, m.unit, m.note)
		if rep.tracedE2E != nil {
			t := rep.tracedE2E[i]
			line += fmt.Sprintf("   | traced %.4f (%+.1f%%) %s", t.value, 100*(t.value/m.value-1), t.note)
		}
		fmt.Fprintln(e.out, line)
	}
	metrics := rep.e2e
	if e.trace {
		fmt.Fprintln(e.out, "  (traced = the same loop with one span per call; the difference is the tracing overhead)")
		fmt.Fprintln(e.out, "per-layer (span self-times from the benchmark's calls into each layer):")
		for _, m := range rep.layers {
			fmt.Fprintf(e.out, "  %-28s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		}
		metrics = rep.layers
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return res
}

// recordFingerprints writes the fingerprint of every workload input for
// input seeds 0..fingerprintSeeds-1 to path.
func recordFingerprints(path string) error {
	f := fingerprintFile{Sizes: fullSizes, Inputs: map[string][]fingerprint{}}
	for _, w := range []string{"solve", "allcuts", "serve"} {
		for s := uint64(0); s < fingerprintSeeds; s++ {
			in := buildInput(w, fullSizes, s)
			fp := fingerprintOf(in.g, noiLambda(in.g))
			fmt.Printf("input %s (input seed %d): %s\n", w, s, fp)
			f.Inputs[w] = append(f.Inputs[w], fp)
		}
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
