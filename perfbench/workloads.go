package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	mincut "repro"
	"repro/internal/graph"
)

// env is one benchmark run's settings.
type env struct {
	workload  string
	seed      uint64
	dur       time.Duration
	trace     bool
	sz        sizes // inputs of fullSizes are checked against fingerprints.json
	setupReps int
	daemon    string // mincutd binary
	workDir   string
	workers   int
	out       io.Writer // human-readable report
	start     time.Time // when the run began; bounds repeats of a timed phase
}

// phase is what one timed closed loop measured.
type phase struct {
	primary, writes   []time.Duration
	elapsed           time.Duration // wall time of the ops ops_per_s counts
	attempted, failed int
	peakRSSMB         float64
	allocBytes, gcs   uint64
	allocOps          int
	stealPct          float64 // share of CPU time the host gave to other guests
	writesAreOps      bool    // serve: ops_per_s counts writes too
}

// maxStealPct is the host CPU steal, in percent of the timed phase, above
// which an untraced run does not report the phase: its figures would
// measure the host more than the program. The phase is repeated while a
// repeat can still end within runBudget of the run's start; a run with no
// calm phase fails without a result.
const (
	maxStealPct = 10
	runBudget   = 100 * time.Second
)

// calm runs measure until it returns a phase under maxStealPct. Traced
// runs report per-layer figures only and are never repeated. Discarded
// phases still count their ops, and their checks still run, in measure.
func calm(e *env, measure func() (phase, error)) (phase, error) {
	for {
		ph, err := measure()
		if err != nil || e.trace || ph.stealPct <= maxStealPct {
			return ph, err
		}
		if time.Since(e.start)+2*e.dur > runBudget {
			return ph, fmt.Errorf("host CPU steal was %.1f%% of the timed phase, above %d%%: no calm phase to report", ph.stealPct, maxStealPct)
		}
		fmt.Fprintf(e.out, "timed phase discarded: host CPU steal %.1f%%, above %d%%; repeating it\n", ph.stealPct, maxStealPct)
	}
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

// report is a run's outcome.
type report struct {
	attempted, failed int
	wrong             []string
	e2e               []metric // end-to-end metrics, untraced
	tracedE2E         []metric // the same, measured with tracing on
	layers            []metric
}

func (r *report) add(ph phase, failures []string) {
	r.attempted += ph.attempted
	r.failed += ph.failed
	r.wrong = append(r.wrong, failures...)
}

// merge adds the samples and counters of q, a later block of the same
// timed phase, to p.
func (p *phase) merge(q phase) {
	p.primary = append(p.primary, q.primary...)
	p.writes = append(p.writes, q.writes...)
	p.elapsed += q.elapsed
	p.attempted += q.attempted
	p.failed += q.failed
	p.peakRSSMB = max(p.peakRSSMB, q.peakRSSMB)
	p.allocBytes += q.allocBytes
	p.gcs += q.gcs
	p.allocOps += q.allocOps
}

// endToEnd derives the end-to-end metrics of a phase.
func endToEnd(setups []float64, ph phase) []metric {
	p, w := summarize(ph.primary), summarize(ph.writes)
	ops, note := float64(len(ph.primary)), fmt.Sprintf("%d ops", len(ph.primary))
	if ph.writesAreOps {
		ops += float64(len(ph.writes))
		note = fmt.Sprintf("%d reads + %d writes", len(ph.primary), len(ph.writes))
	}
	return []metric{
		{"setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups))},
		{"ops_per_s", "1/s", ops / ph.elapsed.Seconds(), fmt.Sprintf("%s in %.2f s, host CPU steal %.1f%%",
			note, ph.elapsed.Seconds(), ph.stealPct)},
		{"p50_ms", "ms", p.p50, fmt.Sprintf("%d samples", p.n)},
		{"tail_ms", "ms", p.tail, fmt.Sprintf("p%.2f of %d samples", p.tailPct, p.n)},
		{"write_p50_ms", "ms", w.p50, fmt.Sprintf("%d samples", w.n)},
		{"write_tail_ms", "ms", w.tail, fmt.Sprintf("p%.2f of %d samples", w.tailPct, w.n)},
		{"peak_rss_mb", "MB", ph.peakRSSMB, "timed phase only"},
	}
}

// cpuTicks returns the steal and total ticks of /proc/stat's cpu line
// (user, nice, system, idle, iowait, irq, softirq, steal). Steal is time
// the hypervisor ran other guests while this one wanted a CPU; it is
// printed so that a slow run on a busy host can be told apart.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i := 1; i <= 8 && i < len(fields); i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealSince returns the share of CPU time stolen since cpuTicks
// returned steal0 and total0, in percent.
func stealSince(steal0, total0 uint64) float64 {
	steal, total := cpuTicks()
	if total <= total0 {
		return 0
	}
	return 100 * float64(steal-steal0) / float64(total-total0)
}

// split returns the untraced and traced durations of a run.
func (e *env) split() (time.Duration, time.Duration) {
	if !e.trace {
		return e.dur, 0
	}
	return e.dur / 2, e.dur - e.dur/2
}

// noiLambda is λ from the sequential NOI solver, the reference answer.
func noiLambda(g *graph.Graph) int64 {
	return mincut.Solve(g, mincut.Options{Algorithm: mincut.AlgoNOI, Workers: 1, Seed: 1}).Value
}

// reference computes λ with the sequential NOI solver, prints the
// input's fingerprint and, for inputs of fullSizes, checks it against
// the recorded one.
func reference(e *env, in input) (int64, error) {
	lambda := noiLambda(in.g)
	fp := fingerprintOf(in.g, lambda)
	fmt.Fprintf(e.out, "input %s (input seed %d): %s\n", e.workload, inputSeed(e.seed), fp)
	if e.sz != fullSizes {
		return lambda, nil
	}
	want, err := recordedFingerprint(e.workload, inputSeed(e.seed))
	if err != nil {
		return 0, err
	}
	if fp != want {
		return 0, fmt.Errorf("input %s differs from its recorded fingerprint %s", e.workload, want)
	}
	return lambda, nil
}

// inprocOp is one primary op of an in-process workload; it returns a
// check to run after the timed phase.
type inprocOp func(ctx context.Context, i int) (check func() error, err error)

// An in-process workload's timed phase alternates, blocks times, between
// a block of primary ops and a block of writes, which gets 1/writeShare
// of the time. Before each write the heap is collected and its memory
// returned to the system, outside the timing, and writes start at most
// once per writePace. So the writes' memory and garbage never reach the
// primary ops, and short writes (allcuts: about 5 ms) spread over the
// whole phase as solve's do: a slow patch of the host then holds too few
// write samples to set the tail.
const (
	blocks     = 5
	writeShare = 5
	writePace  = 100 * time.Millisecond
)

// runInproc measures solve or allcuts: one caller in a closed loop of
// primary ops and, in blocks of their own, writes of the write stream to
// a snapshot of the same input that holds no certificate.
func runInproc(ctx context.Context, e *env) (*report, error) {
	var (
		in     input
		setups []float64
		op     inprocOp
		opName string
	)
	for r := 0; r < e.setupReps; r++ {
		t := time.Now()
		in = buildInput(e.workload, e.sz, inputSeed(e.seed))
		op, opName = primaryOp(e, in, 0) // warm-up: its check is never run
		if _, err := op(ctx, -1-r); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	lambda, err := reference(e, in)
	if err != nil {
		return nil, err
	}
	if in.cliqueOf != nil && lambda != 2 {
		return nil, fmt.Errorf("ring of cliques has λ=%d, want 2", lambda)
	}
	op, _ = primaryOp(e, in, lambda)

	rep := &report{}
	measure := func(dur time.Duration, tr *tracer, opBase int64) func() (phase, error) {
		return func() (phase, error) {
			var ph phase
			steal0, total0 := cpuTicks()
			for b := int64(0); b < blocks; b++ {
				bp, failures := inprocLoop(ctx, (dur-dur/writeShare)/blocks, tr, opBase, ph.allocOps, op, opName)
				wf, err := writePhase(ctx, e, in, dur/writeShare/blocks, tr, opBase+1<<30+b<<20, &bp)
				rep.add(bp, append(failures, wf...))
				ph.merge(bp)
				if err != nil || ctx.Err() != nil {
					return ph, errors.Join(err, ctx.Err())
				}
			}
			ph.stealPct = stealSince(steal0, total0)
			return ph, nil
		}
	}
	untraced, traced := e.split()
	ph, err := calm(e, measure(untraced, nil, 0))
	if err != nil {
		return nil, err
	}
	rep.e2e = endToEnd(setups, ph)
	if !e.trace {
		return rep, nil
	}
	tr := newTracer()
	phB, err := measure(traced, tr, 1<<40)()
	if err != nil {
		return nil, err
	}
	rep.tracedE2E = endToEnd(setups, phB)
	return rep, probeAll(ctx, e, rep, tr, in, lambda, nil, goRuntime("benchmark process, per primary op", ph, phB))
}

// writePhase applies batches of the write stream for dur to a snapshot
// of the input's write base that holds no certificate, so each write is
// one batched rebuild. Building the stream is outside the timing, and so
// is returning the heap's memory before each write. It adds the writes
// to ph.
func writePhase(ctx context.Context, e *env, in input, dur time.Duration, tr *tracer, opBase int64, ph *phase) ([]string, error) {
	ws := newWriteStream(in, mix(e.seed)^0x5eed)
	base, err := ws.base(in.g)
	if err != nil {
		return nil, err
	}
	writer := mincut.NewSnapshot(base, mincut.SnapshotOptions{})
	edges := base.NumEdges()
	start := time.Now()
	for i, next := int64(0), start; time.Since(start) < dur && ctx.Err() == nil; i++ {
		debug.FreeOSMemory()
		time.Sleep(time.Until(next))
		next = time.Now().Add(writePace)
		id := tr.begin("mincut.Snapshot.Apply", 0, opBase+i)
		t := time.Now()
		after, _, err := writer.Apply(ctx, ws.next())
		lat := time.Since(t)
		tr.end(id)
		ph.attempted++
		if err == nil && (after.Epoch() != writer.Epoch()+1 || after.Graph().NumEdges() != edges) {
			err = fmt.Errorf("produced epoch %d with %d edges, want epoch %d with %d",
				after.Epoch(), after.Graph().NumEdges(), writer.Epoch()+1, edges)
		}
		if err != nil {
			ph.failed++ // and stop: later batches would delete edges this one did not
			return []string{fmt.Sprintf("write %d: %v", i, err)}, nil
		}
		writer = after
		ph.writes = append(ph.writes, lat)
	}
	return nil, nil
}

// primaryOp returns the workload's primary op, whose checks compare
// each answer with lambda, and the name of the public call it makes.
func primaryOp(e *env, in input, lambda int64) (inprocOp, string) {
	g := in.g
	if e.workload == "solve" {
		return func(ctx context.Context, i int) (func() error, error) {
			cut, err := mincut.NewSnapshot(g, mincut.SnapshotOptions{
				Solve: mincut.Options{Workers: e.workers, Seed: opSeed(e.seed, i)},
			}).MinCut(ctx)
			return func() error {
				if cut.Value != lambda || !cut.Exact {
					return fmt.Errorf("solve %d: λ=%d exact=%v, NOI λ=%d", i, cut.Value, cut.Exact, lambda)
				}
				if v := mincut.CutValue(g, cut.Side); v != lambda {
					return fmt.Errorf("solve %d: witness side has cut value %d, want %d", i, v, lambda)
				}
				return nil
			}, err
		}, "mincut.Snapshot.MinCut"
	}
	return func(ctx context.Context, i int) (func() error, error) {
		res, err := mincut.AllMinCuts(g, mincut.AllCutsOptions{
			Workers: e.workers, Seed: opSeed(e.seed, i), NoMaterialize: true,
		})
		return func() error {
			if err := checkRing(res, in, lambda); err != nil {
				return fmt.Errorf("allcuts %d: %w", i, err)
			}
			if i == 0 {
				return checkStreamedCuts(res, g, lambda, opSeed(e.seed, i))
			}
			return nil
		}, err
	}, "mincut.AllMinCuts"
}

// checkRing checks an all-cuts answer on the ring of k cliques against
// its closed form: λ = 2, k(k-1)/2 cuts, a kernel of k vertices, and a
// cactus that is one k-cycle whose nodes are exactly the cliques, in
// ring order. That pins the whole cut family without streaming it.
func checkRing(res *mincut.AllCuts, in input, lambda int64) error {
	k := 0
	for _, c := range in.cliqueOf {
		k = max(k, int(c)+1)
	}
	c := res.Cactus
	switch {
	case res.Lambda != lambda || !res.Connected:
		return fmt.Errorf("λ=%d connected=%v, want λ=%d", res.Lambda, res.Connected, lambda)
	case res.Count != k*(k-1)/2:
		return fmt.Errorf("%d cuts, want %d", res.Count, k*(k-1)/2)
	case res.KernelVertices != k:
		return fmt.Errorf("kernel of %d vertices, want %d", res.KernelVertices, k)
	case c == nil || c.NumNodes != k || c.NumCycles != 1 || len(c.Edges) != k:
		return fmt.Errorf("cactus is not one %d-cycle", k)
	}
	nodeClique := make([]int32, k)
	cliqueNode := make([]int32, k)
	for i := range nodeClique {
		nodeClique[i], cliqueNode[i] = -1, -1
	}
	for v, node := range c.VertexNode {
		cl := in.cliqueOf[v]
		if nodeClique[node] == -1 && cliqueNode[cl] == -1 {
			nodeClique[node], cliqueNode[cl] = cl, node
		}
		if nodeClique[node] != cl || cliqueNode[cl] != node {
			return fmt.Errorf("cactus node %d does not hold exactly clique %d", node, cl)
		}
	}
	deg := make([]int, k)
	for _, ed := range c.Edges {
		d := (nodeClique[ed.A] - nodeClique[ed.B] + int32(k)) % int32(k)
		if ed.Cycle != 0 || (d != 1 && d != int32(k)-1) {
			return fmt.Errorf("cactus edge %d-%d does not join neighbouring cliques on the cycle", ed.A, ed.B)
		}
		deg[ed.A]++
		deg[ed.B]++
	}
	for node, d := range deg {
		if d != 2 {
			return fmt.Errorf("cactus node %d has degree %d on the cycle", node, d)
		}
	}
	return nil
}

// checkStreamedCuts streams cuts from the cactus and checks CutValue on
// a seeded sample of them.
func checkStreamedCuts(res *mincut.AllCuts, g *graph.Graph, lambda int64, seed uint64) error {
	const samples = 8
	want := map[int]bool{}
	for i := 0; i < samples; i++ {
		want[int(mix(seed+uint64(i))%uint64(res.Count))] = true
	}
	idx, checked := 0, 0
	var bad error
	res.Cactus.EachMinCut(func(side []bool) bool {
		if want[idx] {
			checked++
			if v := mincut.CutValue(g, side); v != lambda {
				bad = fmt.Errorf("streamed cut %d has value %d, want %d", idx, v, lambda)
				return false
			}
		}
		idx++
		return checked < len(want)
	})
	if bad == nil && checked != len(want) {
		bad = fmt.Errorf("cactus streamed %d cuts, fewer than its count %d", idx, res.Count)
	}
	return bad
}

// inprocLoop runs op in a closed loop for dur, numbering the ops from
// first, and then runs their checks. Peak RSS and allocations cover the
// loop only.
func inprocLoop(ctx context.Context, dur time.Duration, tr *tracer, opBase int64, first int, op inprocOp, opName string) (phase, []string) {
	var ph phase
	var failures []string
	fail := func(err error) {
		ph.failed++
		if len(failures) < 5 {
			failures = append(failures, err.Error())
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	pid := os.Getpid()
	if err := resetPeakRSS(pid); err != nil {
		fail(err)
	}
	var checks []func() error
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for i := first; time.Since(start) < dur && ctx.Err() == nil; i++ {
		runtime.ReadMemStats(&ms0)
		id := tr.begin(opName, 0, opBase+int64(i))
		t := time.Now()
		check, err := op(ctx, i)
		lat := time.Since(t)
		tr.end(id)
		runtime.ReadMemStats(&ms1)
		ph.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		ph.gcs += uint64(ms1.NumGC - ms0.NumGC)
		ph.allocOps++
		ph.attempted++
		if err != nil {
			fail(err)
		} else {
			ph.primary = append(ph.primary, lat)
			checks = append(checks, check)
		}
	}
	ph.elapsed = time.Since(start)
	var err error
	if ph.peakRSSMB, err = peakRSSMB(pid); err != nil {
		fail(err)
	}
	for _, check := range checks {
		if err := check(); err != nil {
			fail(err)
		}
	}
	return ph, failures
}

// runServe measures mincutd: set-up starts a daemon on the generated
// graph, then two connections drive it.
func runServe(ctx context.Context, e *env) (*report, error) {
	var (
		in     input
		s      *session
		setups []float64
	)
	for r := 0; r < e.setupReps; r++ {
		if s != nil {
			s.d.stop()
		}
		t := time.Now()
		in = buildInput(e.workload, e.sz, inputSeed(e.seed))
		var err error
		if s, err = openSession(ctx, e, in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer s.d.stop()
	lambda, err := reference(e, in)
	if err != nil {
		return nil, err
	}

	rep := &report{}
	untraced, traced := e.split()
	ph, err := calm(e, func() (phase, error) {
		ph, err := s.drive(ctx, untraced, nil, 0)
		rep.add(ph, nil)
		return ph, err
	})
	if err != nil {
		return nil, err
	}
	rep.e2e = endToEnd(setups, ph)
	var tr *tracer
	var dn *daemonNumbers
	var rt []metric
	if e.trace {
		tr = newTracer()
		from := len(s.ws.batches)
		phB, err := s.drive(ctx, traced, tr, 1<<40)
		if err != nil {
			return nil, err
		}
		rep.tracedE2E = endToEnd(setups, phB)
		rep.add(phB, nil)
		if dn, err = measureDaemon(s, tr, from); err != nil {
			return nil, err
		}
		rt = goRuntime("mincutd process, per request", ph, phB)
	}
	rep.wrong = append(rep.wrong, s.failed...)
	wrong, err := s.verify(ctx, e.workers)
	if err != nil {
		return nil, err
	}
	rep.failed += len(wrong)
	rep.wrong = append(rep.wrong, wrong...)
	if !e.trace {
		return rep, ctx.Err()
	}
	return rep, probeAll(ctx, e, rep, tr, in, lambda, dn, rt)
}

// daemonNumbers is what a traced session measured of mincutd.
type daemonNumbers struct {
	s               *session
	from            int     // the first batch the traced phase wrote
	readP50         float64 // HTTP read latency median of the traced phase, ms
	hitRatio        float64 // GET /mincut cache hits / requests
	coalesced, shed int64
}

// measureDaemon reads a session's mincutd numbers from its traced
// phase, which wrote batches from on, and the daemon's /stats counters.
func measureDaemon(s *session, tr *tracer, from int) (*daemonNumbers, error) {
	st, err := s.d.stats()
	if err != nil {
		return nil, err
	}
	dn := &daemonNumbers{
		s: s, from: from,
		readP50:  mediansMS(tr.selfByName("mincutd GET /mincut")),
		hitRatio: float64(st["/mincut"].CacheHits) / math.Max(float64(st["/mincut"].Requests), 1),
	}
	for _, ep := range st {
		dn.coalesced += ep.Coalesced
		dn.shed += ep.Shed
	}
	return dn, nil
}

// goRuntime derives the Go runtime metrics of the computing process
// from phases' allocation counters.
func goRuntime(where string, phs ...phase) []metric {
	var bytes, gcs uint64
	ops := 0
	for _, ph := range phs {
		bytes, gcs, ops = bytes+ph.allocBytes, gcs+ph.gcs, ops+ph.allocOps
	}
	perOp := 1 / float64(max(ops, 1))
	return []metric{
		{"go.alloc_mb_per_op", "MB", float64(bytes) * perOp / (1 << 20), where},
		{"go.gc_per_op", "count", float64(gcs) * perOp, where},
	}
}
