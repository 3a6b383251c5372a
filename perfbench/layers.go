package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	mincut "repro"
	"repro/internal/cactus"
	"repro/internal/capforest"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/pq"
	"repro/internal/viecut"
)

// layerMetrics lists every per-layer metric with its unit, in report
// order. BENCHMARK.json's per_layer list must name exactly these.
var layerMetrics = []struct{ name, unit string }{
	{"viecut.run_ms", "ms"},
	{"viecut.levels", "count"},
	{"viecut.bound_gap", "weight"},
	{"viecut.below_delta", "weight"},
	{"capforest.scan_ms", "ms"},
	{"capforest.union_ratio", "ratio"},
	{"capforest.pops", "count"},
	{"capforest.updates", "count"},
	{"capforest.capped_skips", "count"},
	{"graph.contract_ms", "ms"},
	{"graph.apply_delta_ms", "ms"},
	{"core.parcut_ms", "ms"},
	{"core.parcut_w1_ms", "ms"},
	{"core.parcut_speedup", "ratio"},
	{"core.rounds", "count"},
	{"core.seq_fallbacks", "count"},
	{"core.kernelize_ms", "ms"},
	{"core.kernel_vertices", "count"},
	{"core.certify_ms", "ms"},
	{"core.certify_ratio", "ratio"},
	{"cactus.kernel_ms", "ms"},
	{"cactus.enumerate_ms", "ms"},
	{"cactus.assemble_ms", "ms"},
	{"cactus.cuts", "count"},
	{"snapshot.apply_ms", "ms"},
	{"snapshot.rebuilds", "count"},
	{"snapshot.certify_calls", "count"},
	{"snapshot.lambda_reuse_ratio", "ratio"},
	{"snapshot.resolve_ms", "ms"},
	{"mincutd.read_overhead_ms", "ms"},
	{"mincutd.write_overhead_ms", "ms"},
	{"mincutd.cache_hit_ratio", "ratio"},
	{"mincutd.coalesced", "count"},
	{"mincutd.shed", "count"},
	{"persist.wal_bytes_per_write", "bytes"},
	{"persist.append_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_per_op", "count"},
}

const (
	probeReps      = 3   // repetitions of each timed layer call
	certifyBatches = 2   // batches whose deletions are certification probes
	sessionSeconds = 4   // daemon session of the solve and allcuts traced runs
	cachedReads    = 200 // in-process cached reads behind read_overhead_ms
)

// prober calls each layer's exported functions on one input, one span
// per call, and collects the per-layer metrics.
type prober struct {
	ctx     context.Context
	e       *env
	tr      *tracer
	g       *graph.Graph
	lambda  int64
	op      int64
	metrics map[string]metric
	wrong   []string
}

func (p *prober) nextOp() int64 { p.op++; return p.op }

func (p *prober) set(name string, v float64, note string) {
	p.metrics[name] = metric{name: name, value: v, note: note}
}

func (p *prober) fail(format string, args ...any) {
	p.wrong = append(p.wrong, fmt.Sprintf(format, args...))
}

// probeAll measures every layer on the workload's input. dn carries the
// mincutd numbers of the workload's own traced session; when nil (solve
// and allcuts) a short session on the input measures them. rt holds the
// Go runtime metrics of the process that computed the primary ops.
func probeAll(ctx context.Context, e *env, rep *report, tr *tracer, in input, lambda int64,
	dn *daemonNumbers, rt []metric) error {
	p := &prober{ctx: ctx, e: e, tr: tr, g: in.g, lambda: lambda, op: 1 << 50, metrics: map[string]metric{}}
	p.solver()
	p.roundOne()
	p.kernel()
	if dn == nil {
		var err error
		if dn, err = sessionNumbers(ctx, e, rep, tr, in); err != nil {
			return err
		}
	}
	cachedMS, err := p.writes(in, dn)
	if err != nil {
		return err
	}
	p.set("mincutd.read_overhead_ms", dn.readP50-cachedMS, fmt.Sprintf("HTTP read p50 %.4f ms - in-process cached read %.6f ms", dn.readP50, cachedMS))
	p.set("mincutd.cache_hit_ratio", dn.hitRatio, "GET /mincut, from /stats")
	p.set("mincutd.coalesced", float64(dn.coalesced), "from /stats")
	p.set("mincutd.shed", float64(dn.shed), "from /stats")
	for _, m := range rt {
		p.set(m.name, m.value, m.note)
	}

	rep.failed += len(p.wrong)
	rep.wrong = append(rep.wrong, p.wrong...)
	for _, lm := range layerMetrics {
		m, ok := p.metrics[lm.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		m.unit = lm.unit
		rep.layers = append(rep.layers, m)
	}
	path := filepath.Join(e.workDir, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "trace: %d spans written to %s\n", len(tr.spans), path)
	return nil
}

// sessionNumbers measures mincutd with a short traced session on the
// input and checks its answers like the serve workload does.
func sessionNumbers(ctx context.Context, e *env, rep *report, tr *tracer, in input) (*daemonNumbers, error) {
	s, err := openSession(ctx, e, in)
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	ph, err := s.drive(ctx, min(sessionSeconds*time.Second, e.dur), tr, 1<<45)
	if err != nil {
		return nil, err
	}
	dn, err := measureDaemon(s, tr, 0)
	if err != nil {
		return nil, err
	}
	wrong, err := s.verify(ctx, e.workers)
	if err != nil {
		return nil, err
	}
	rep.add(ph, s.failed)
	rep.failed += len(wrong)
	rep.wrong = append(rep.wrong, wrong...)
	return dn, nil
}

// solver runs core.ParallelMinimumCut whole, at e.workers and at one
// worker.
func (p *prober) solver() {
	var ids, ids1 []int64
	var rounds, fallbacks, pops, updates, skips []float64
	for r := 0; r < probeReps; r++ {
		var res, res1 core.Result
		var err, err1 error
		seed := opSeed(p.e.seed, 1000+r)
		opts := core.Options{Workers: p.e.workers, Queue: pq.KindBQueue, Bounded: true, Seed: seed}
		ids = append(ids, p.tr.call("core.ParallelMinimumCut", 0, p.nextOp(), func() {
			res, err = core.ParallelMinimumCut(p.ctx, p.g, opts)
		}))
		opts.Workers = 1
		ids1 = append(ids1, p.tr.call("core.ParallelMinimumCut workers=1", 0, p.nextOp(), func() {
			res1, err1 = core.ParallelMinimumCut(p.ctx, p.g, opts)
		}))
		if err != nil || err1 != nil || res.Value != p.lambda || res1.Value != p.lambda {
			p.fail("core.ParallelMinimumCut: λ=%d (%v) and λ=%d at one worker (%v), want %d", res.Value, err, res1.Value, err1, p.lambda)
		}
		rounds = append(rounds, float64(res.Rounds))
		fallbacks = append(fallbacks, float64(res.SeqFallbacks))
		pops = append(pops, float64(res.Stats.Pops))
		updates = append(updates, float64(res.Stats.Updates))
		skips = append(skips, float64(res.Stats.CappedSkips))
	}
	parcut, w1 := mediansMS(p.tr.selfOf(ids)), mediansMS(p.tr.selfOf(ids1))
	p.set("core.parcut_ms", parcut, fmt.Sprintf("%d workers", p.e.workers))
	p.set("core.parcut_w1_ms", w1, "1 worker")
	p.set("core.parcut_speedup", w1/parcut, fmt.Sprintf("1 worker vs %d", p.e.workers))
	p.set("core.rounds", median(rounds), "")
	p.set("core.seq_fallbacks", median(fallbacks), "")
	p.set("capforest.pops", median(pops), "whole solve")
	p.set("capforest.updates", median(updates), "whole solve")
	p.set("capforest.capped_skips", median(skips), "whole solve")
}

// roundOne replays ParallelMinimumCut's first round call by call: the
// VieCut bound, one parallel CAPFOREST scan and the contraction of the
// edges it marked.
func (p *prober) roundOne() {
	var vcIDs, scanIDs, contractIDs []int64
	var levels, gap, below, unionRatio []float64
	n := p.g.NumVertices()
	for r := 0; r < probeReps; r++ {
		op := p.nextOp()
		seed := opSeed(p.e.seed, 2000+r)
		parent := p.tr.begin("core round 1", 0, op)
		var delta int64
		p.tr.call("graph.Graph.MinDegreeVertex", parent, op, func() { _, delta = p.g.MinDegreeVertex() })
		var vc viecut.Result
		vcIDs = append(vcIDs, p.tr.call("viecut.Run", parent, op, func() {
			vc = viecut.Run(p.g, viecut.Options{Workers: p.e.workers, Seed: seed})
		}))
		bound := min(delta, vc.Value)
		roundWorkers := p.e.workers // ParallelMinimumCut's clamp for small graphs
		if c := n / 1024; c < roundWorkers {
			roundWorkers = max(1, c)
		}
		var u *dsu.Concurrent
		p.tr.call("dsu.NewConcurrent", parent, op, func() { u = dsu.NewConcurrent(n) })
		var par capforest.ParallelResult
		scanIDs = append(scanIDs, p.tr.call("capforest.RunParallel", parent, op, func() {
			par = capforest.RunParallel(p.g, u, bound, roundWorkers, capforest.Options{
				Queue: pq.KindBQueue, Bounded: true, Seed: seed + 1, Ctx: p.ctx,
			})
		}))
		var mapping []int32
		var blocks int
		p.tr.call("dsu.Concurrent.Mapping", parent, op, func() { mapping, blocks = u.Mapping() })
		contractIDs = append(contractIDs, p.tr.call("graph.Graph.ContractParallel", parent, op, func() {
			p.g.ContractParallel(graph.Mapping{Block: mapping, NumBlocks: blocks}, p.e.workers)
		}))
		p.tr.end(parent)
		levels = append(levels, float64(vc.Levels))
		gap = append(gap, float64(vc.Value-p.lambda))
		below = append(below, float64(delta-vc.Value))
		unionRatio = append(unionRatio, float64(par.Unions)/float64(max(par.Stats.Pops, 1)))
	}
	p.set("viecut.run_ms", mediansMS(p.tr.selfOf(vcIDs)), "")
	p.set("viecut.levels", median(levels), "")
	p.set("viecut.bound_gap", median(gap), "VieCut value - λ")
	p.set("viecut.below_delta", median(below), "δ - VieCut value")
	p.set("capforest.scan_ms", mediansMS(p.tr.selfOf(scanIDs)), "one RunParallel, round-1 arguments")
	p.set("capforest.union_ratio", median(unionRatio), "unions / pops, round 1")
	p.set("graph.contract_ms", mediansMS(p.tr.selfOf(contractIDs)), "round 1's mapping")
}

// kernel runs the all-cuts kernelization and the cactus pipeline on the
// kernel, with λ given and kernelization off.
func (p *prober) kernel() {
	var kIDs, cIDs []int64
	var kv, cuts, enum, asm []float64
	for r := 0; r < probeReps; r++ {
		op := p.nextOp()
		seed := opSeed(p.e.seed, 3000+r)
		var k core.Kernel
		var err error
		kIDs = append(kIDs, p.tr.call("core.KernelizeAllCuts", 0, op, func() {
			k, err = core.KernelizeAllCuts(p.ctx, p.g, p.lambda, p.e.workers, seed)
		}))
		if err != nil {
			p.fail("core.KernelizeAllCuts: %v", err)
			return
		}
		var res *cactus.Result
		cIDs = append(cIDs, p.tr.call("cactus.AllMinCuts", 0, op, func() {
			res, err = cactus.AllMinCuts(p.ctx, k.Graph, cactus.Options{
				Workers: p.e.workers, Seed: seed, Lambda: p.lambda, DisableKernel: true, NoMaterialize: true,
			})
		}))
		if err != nil {
			p.fail("cactus.AllMinCuts on the kernel: %v", err)
			return
		}
		kv = append(kv, float64(k.Graph.NumVertices()))
		cuts = append(cuts, float64(res.Count))
		enum = append(enum, durMS(res.Phases.Enumerate))
		asm = append(asm, durMS(res.Phases.Assemble))
	}
	p.set("core.kernelize_ms", mediansMS(p.tr.selfOf(kIDs)), "")
	p.set("core.kernel_vertices", median(kv), "")
	p.set("cactus.kernel_ms", mediansMS(p.tr.selfOf(cIDs)), "AllMinCuts on the kernel, λ given")
	p.set("cactus.enumerate_ms", median(enum), "program-reported Result.Phases")
	p.set("cactus.assemble_ms", median(asm), "program-reported Result.Phases")
	p.set("cactus.cuts", median(cuts), "")
}

// writes replays in process every batch the session's daemon
// acknowledged, the way mincutd applied them: from the session's write
// base, with the daemon's solver options, and with a read warming λ
// before each write, as the writer connection's read did. For the
// batches of the traced phase it times each Apply, appends the batch to
// a WAL, and takes the batch's HTTP write latency minus its Apply time.
// It then probes certification of the first batches' deletions on the
// write base and times a one-edge ApplyDelta. It returns the median
// in-process cached read time, for the read overhead.
func (p *prober) writes(in input, dn *daemonNumbers) (cachedMS float64, err error) {
	s := dn.s
	dir, err := os.MkdirTemp(p.e.workDir, "wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "wal.jsonl")
	wal, err := persist.OpenWAL(walPath)
	if err != nil {
		return 0, err
	}
	defer wal.Close()

	opts := mincut.SnapshotOptions{Solve: mincut.Options{Workers: p.e.workers, Seed: daemonSeed(p.e.seed)}}
	snap := mincut.NewSnapshot(s.base, opts)
	var baseCut mincut.Cut
	// The session's warm-up read solves the write base. It counts among
	// the reads without a cached λ; on allcuts, whose writes stay inside
	// the cliques and never drop λ, it is the only one.
	resolveIDs := []int64{p.tr.call("mincut.Snapshot.MinCut", 0, p.nextOp(), func() { baseCut, err = snap.MinCut(p.ctx) })}
	if err != nil {
		return 0, err
	}
	var applyIDs, appendIDs []int64
	var httpLat []time.Duration
	var rebuilds, certifies, reuses float64
	for b := 0; b < int(s.epoch); b++ {
		traced := b >= dn.from
		op := p.nextOp()
		_, cached := snap.LambdaCached()
		id := p.tr.call("mincut.Snapshot.MinCut", 0, op, func() { _, err = snap.MinCut(p.ctx) })
		if err != nil {
			return 0, err
		}
		if traced && !cached {
			resolveIDs = append(resolveIDs, id)
		}
		var next *mincut.Snapshot
		var reused mincut.Reused
		id = p.tr.call("mincut.Snapshot.Apply", 0, op, func() { next, reused, err = snap.Apply(p.ctx, s.ws.batches[b]) })
		if err != nil {
			return 0, fmt.Errorf("replay batch %d: %w", b, err)
		}
		snap = next
		if !traced {
			continue
		}
		applyIDs = append(applyIDs, id)
		httpLat = append(httpLat, s.writeLat[b])
		rec := persist.Record{Epoch: next.Epoch(), Mutations: wire(s.ws.batches[b])}
		appendIDs = append(appendIDs, p.tr.call("persist.WAL.Append", 0, op, func() { err = wal.Append(rec) }))
		if err != nil {
			return 0, err
		}
		rebuilds += float64(reused.Rebuilds)
		certifies += float64(reused.CertifyCalls)
		if reused.Lambda {
			reuses++
		}
	}
	fi, err := os.Stat(walPath)
	if err != nil {
		return 0, err
	}
	applies := p.tr.selfOf(applyIDs)
	overheads := make([]time.Duration, len(applies))
	for i, a := range applies {
		overheads[i] = httpLat[i] - a
	}
	n := float64(max(len(applies), 1))
	note := fmt.Sprintf("%d batches of %d mutations, the traced session's", len(applies), 2*batchDeletes)
	p.set("snapshot.apply_ms", mediansMS(applies), note)
	p.set("snapshot.rebuilds", rebuilds/n, "per batch")
	p.set("snapshot.certify_calls", certifies/n, "per batch")
	p.set("snapshot.lambda_reuse_ratio", reuses/n, "batches that carried λ")
	p.set("snapshot.resolve_ms", mediansMS(p.tr.selfOf(resolveIDs)), fmt.Sprintf("%d reads without a cached λ, the warm-up read's included", len(resolveIDs)))
	p.set("persist.wal_bytes_per_write", float64(fi.Size())/n, "")
	p.set("persist.append_ms", mediansMS(p.tr.selfOf(appendIDs)), "fsync per append")
	p.set("mincutd.write_overhead_ms", mediansMS(overheads), "median over the same batches of HTTP write latency - in-process Apply")

	// In-process cached reads: what GET /mincut costs without HTTP.
	if _, err := snap.MinCut(p.ctx); err != nil {
		return 0, err
	}
	var readIDs []int64
	op := p.nextOp()
	for i := 0; i < cachedReads; i++ {
		readIDs = append(readIDs, p.tr.call("mincut.Snapshot.MinCut", 0, op, func() { snap.MinCut(p.ctx) }))
	}
	cachedMS = mediansMS(p.tr.selfOf(readIDs))

	// Certification probes: the deletions of the first batches, judged
	// on the write base as Apply judges a deletion no cached cut crosses.
	var certIDs []int64
	certified := 0
	for _, batch := range s.ws.batches[:min(certifyBatches, len(s.ws.batches))] {
		for _, m := range batch {
			w := s.base.EdgeWeight(m.U, m.V)
			if m.Op != mincut.MutDelete || w == 0 {
				continue
			}
			var ok bool
			certIDs = append(certIDs, p.tr.call("core.CertifyConnectivity", 0, p.nextOp(), func() {
				ok, err = core.CertifyConnectivity(p.ctx, s.base, m.U, m.V, baseCut.Value+w+1, p.e.workers, opSeed(p.e.seed, 5000+len(certIDs)))
			}))
			if err != nil {
				return 0, err
			}
			if ok {
				certified++
			}
		}
	}
	p.set("core.certify_ms", mediansMS(p.tr.selfOf(certIDs)), fmt.Sprintf("%d probes", len(certIDs)))
	p.set("core.certify_ratio", float64(certified)/float64(max(len(certIDs), 1)), "certified / probes")

	// One-edge ApplyDelta on the input.
	var deltaIDs []int64
	e := s.ws.ordinary[0]
	for r := 0; r < probeReps; r++ {
		deltaIDs = append(deltaIDs, p.tr.call("graph.ApplyDelta", 0, p.nextOp(), func() {
			_, err = graph.ApplyDelta(in.g, nil, [][2]int32{{e.U, e.V}})
		}))
		if err != nil {
			return 0, err
		}
	}
	p.set("graph.apply_delta_ms", mediansMS(p.tr.selfOf(deltaIDs)), "one-edge delete")
	return cachedMS, nil
}
