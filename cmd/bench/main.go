// Command bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	bench -experiment fig2|fig3|fig4|fig5|table1|ablation|cactus|solve|service|all
//	      [-scale small|medium|large] [-json file] [-instance substr]
//	      [-cpuprofile file] [-memprofile file]
//
// Output goes to stdout in tab-separated tables whose rows and series
// match the corresponding paper figure; README's cmd/bench entry lists
// the experiments.
// The ablation experiment ends with a table of ParCutλ̂-BQueue times with
// and without VieCut at one and at GOMAXPROCS workers and, with -json,
// writes those rows as the BENCH_parcut.json baseline.
// The cactus experiment times the all-minimum-cuts pipeline at one and
// at GOMAXPROCS workers and, with -json, writes the BENCH_cactus.json
// baseline; -instance restricts it to instances whose name contains the
// given substring (the CI smoke runs one small ring). The solve experiment
// times the solver set on the real-instance corpus of internal/datasets
// and, with -json, writes the BENCH_solve.json baseline; external
// instances are skipped unless $REPRO_DATASETS provides them. The
// service experiment measures the Snapshot cache and mutation layer
// (cmd/mincutd's serving path) and, with -json, writes the
// BENCH_service.json baseline.
//
// -cpuprofile and -memprofile write pprof profiles of the run, so a
// perf investigation starts from the committed benchmark definitions
// instead of ad-hoc harnesses.
//
// SIGINT stops the run at the next instance boundary; the tables printed
// so far are kept and the process exits with status 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

// run carries the whole invocation so deferred cleanups — notably
// stopping the CPU profile and writing the heap profile — execute on
// every exit path (os.Exit skips defers).
func run() int {
	experiment := flag.String("experiment", "all", "fig2, fig3, fig4, fig5, table1, ablation, cactus, solve, service, or all")
	scale := flag.String("scale", "small", "small, medium, or large")
	jsonPath := flag.String("json", "", "with -experiment ablation, cactus, solve, or service: also write the measurements as a JSON baseline")
	instance := flag.String("instance", "", "with -experiment cactus: only run instances whose name contains this substring")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "bench: -memprofile: %v\n", err)
			}
		}()
	}

	var s bench.Scale
	switch *scale {
	case "small":
		s = bench.SmallScale()
	case "medium":
		s = bench.MediumScale()
	case "large":
		s = bench.LargeScale()
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q\n", *scale)
		return 2
	}

	// SIGINT cancels the run at the next instance boundary; each
	// experiment checks s.Cancelled() between instances and keeps the
	// partial tables.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s.Ctx = ctx

	failed := false
	writeJSON := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			failed = true
		}
	}

	w := os.Stdout
	switch *experiment {
	case "fig2":
		bench.Fig2(w, s)
	case "fig3":
		bench.Fig3(w, s)
	case "fig4":
		ms := bench.Fig2(w, s)
		ms = append(ms, bench.Fig3(w, s)...)
		bench.Fig4(w, ms)
	case "fig5":
		bench.Fig5(w, s)
	case "table1":
		bench.Table1(w, s)
	case "ablation":
		pms := bench.Ablation(w, s)
		if *jsonPath != "" {
			writeJSON(bench.WriteJSON(*jsonPath, pms))
		}
	case "cactus":
		cms := bench.CactusBench(w, s, *instance)
		if *jsonPath != "" {
			writeJSON(bench.WriteJSON(*jsonPath, cms))
		}
	case "solve":
		sms := bench.SolveBench(w, s)
		if *jsonPath != "" {
			writeJSON(bench.WriteJSON(*jsonPath, sms))
		}
	case "service":
		sms := bench.ServiceBench(w, s)
		if *jsonPath != "" {
			writeJSON(bench.WriteJSON(*jsonPath, sms))
		}
	case "all":
		ms := bench.Fig2(w, s)
		ms = append(ms, bench.Fig3(w, s)...)
		bench.Fig4(w, ms)
		bench.Table1(w, s)
		bench.Ablation(w, s)
		bench.Fig5(w, s)
		bench.CactusBench(w, s, *instance)
		bench.SolveBench(w, s)
		bench.ServiceBench(w, s)
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown experiment %q\n", *experiment)
		return 2
	}
	if failed {
		return 1
	}
	if s.Cancelled() {
		return 130
	}
	return 0
}
