// Command mincutd serves minimum-cut queries over HTTP against a shared
// immutable Snapshot.
//
// Usage:
//
//	mincutd [-listen :8080] [-format auto|metis|edgelist|matrixmarket]
//	        [-workers N] [-queue N] [-solve-workers N] [-seed S]
//	        [-wal file] [-checkpoint-every N]
//	        [-max-mutate-bytes N] [-pprof addr] graphfile
//
// With -pprof, the net/http/pprof profiling endpoints are served on a
// SEPARATE listener (own mux, never the query mux, so profiling is
// never exposed on the public address by accident): point it at a
// loopback address like localhost:6060 and profile a live daemon with
// `go tool pprof http://localhost:6060/debug/pprof/profile`.
//
// The graph is loaded once at startup; every query runs against the
// current *mincut.Snapshot, so the first /mincut (or /allcuts) pays the
// solve and every later query is served from the cached certificate.
// POST /mutate applies a mutation batch copy-on-write and atomically
// swaps in the new epoch — in-flight queries keep reading their old
// snapshot, which stays valid forever.
//
// Endpoints (all responses are JSON):
//
//	GET  /mincut            λ, algorithm, epoch; ?side=1 adds the smaller side
//	GET  /allcuts           number of minimum cuts + cactus summary
//	GET  /cutvalue?side=a,b,c   weight of the cut separating the listed vertices
//	GET  /stats             graph statistics, epoch, per-endpoint counters, admission gauges
//	POST /mutate            {"mutations":[{"op":"insert","u":0,"v":5,"weight":2}, ...]}
//	GET  /healthz           liveness: {"status":"ok","epoch":N}
//
// # Admission control and coalescing
//
// Queries run on a bounded worker pool (-workers, default GOMAXPROCS)
// behind a bounded wait queue (-queue, default 4×workers). When the
// pool is saturated a request queues; when the queue is also full it is
// shed immediately with 429 instead of piling up. A request cancelled
// (client disconnect) while queued or mid-solve gets 503; cancellation
// aborts an in-flight solve at its next phase boundary without
// poisoning the snapshot's cache. Concurrent identical queries —
// same endpoint, same epoch, same parameters — are coalesced at the
// HTTP layer on top of the snapshot's per-certificate single flight:
// one of them computes and marshals, the rest share the bytes (counted
// in the per-endpoint "coalesced" metric).
//
// # Persistence
//
// With -wal, every applied mutation batch is appended to a JSON-lines
// write-ahead log and fsync'd before the new epoch is published, and
// every -checkpoint-every batches the full graph is checkpointed
// (atomic tmp+rename to <wal>.ckpt) and the log truncated. Every boot
// with -wal restores from those files: checkpoint first, then WAL
// replay, resuming at the exact pre-crash epoch — SIGKILL loses nothing
// that was acknowledged, and a missing log and checkpoint start at
// epoch 0. Certificates are re-derived lazily on first query.
//
// # Error contract
//
//	400  malformed JSON, unknown op, vertex out of range, non-positive
//	     insert weight, self-loop delete, delete of a missing edge,
//	     bad /cutvalue parameters
//	413  /mutate body larger than -max-mutate-bytes (default 1 MiB)
//	429  admission queue full (overload shed; retry later)
//	503  request cancelled while queued or mid-computation; WAL append
//	     failure (the mutation is NOT applied)
//
// Every error body is {"error":"..."}. A 4xx/5xx on /mutate never
// publishes a new epoch and never leaves a partial batch applied.
//
// SIGINT/SIGTERM shut the server down gracefully.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	mincut "repro"
	"repro/internal/persist"
	"repro/internal/serve"
)

func main() {
	listen := flag.String("listen", ":8080", "address to serve HTTP on")
	format := flag.String("format", "auto", "input format: auto, metis, edgelist, or matrixmarket")
	workers := flag.Int("workers", 0, "query worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4×workers); beyond it requests get 429")
	solveWorkers := flag.Int("solve-workers", 0, "parallel workers per solve and per all-cuts enumeration (0 = all cores)")
	seed := flag.Uint64("seed", 1, "random seed for the solvers")
	walPath := flag.String("wal", "", "write-ahead log file for /mutate batches (fsync'd per batch), replayed with its checkpoint at boot")
	ckptEvery := flag.Uint64("checkpoint-every", 64, "checkpoint the graph and truncate the WAL every N batches (0 = never)")
	maxMutateBytes := flag.Int64("max-mutate-bytes", 1<<20, "maximum /mutate request body size; larger bodies get 413")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mincutd [flags] graphfile  (see -h)")
		os.Exit(2)
	}
	g, err := mincut.ReadGraphFile(flag.Arg(0), *format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mincutd: %v\n", err)
		os.Exit(1)
	}

	opts := mincut.SnapshotOptions{
		Solve:   mincut.Options{Workers: *solveWorkers, Seed: *seed},
		AllCuts: mincut.AllCutsOptions{Workers: *solveWorkers, Seed: *seed, NoMaterialize: true},
	}
	snap, wal, err := openState(context.Background(), g, opts, *walPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mincutd: %v\n", err)
		os.Exit(1)
	}
	if wal != nil {
		defer wal.Close()
		if snap.Epoch() > 0 {
			fmt.Fprintf(os.Stderr, "mincutd: restored epoch %d from %s\n", snap.Epoch(), *walPath)
		}
	}
	srv := newServer(snap, *workers, serverConfig{
		queue: *queue, maxMutateBytes: *maxMutateBytes, checkpointEvery: *ckptEvery, wal: wal,
	})

	httpSrv := &http.Server{Addr: *listen, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// Dedicated mux: registering pprof on the default mux would do
		// nothing (the query server owns its own), and registering it on
		// the query mux would expose profiling publicly.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "mincutd: pprof on %s\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				fmt.Fprintf(os.Stderr, "mincutd: pprof listener: %v\n", err)
			}
		}()
	}

	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()

	fmt.Fprintf(os.Stderr, "mincutd: serving %s (n=%d m=%d) on %s at epoch %d\n",
		flag.Arg(0), snap.Graph().NumVertices(), snap.Graph().NumEdges(), *listen, snap.Epoch())
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "mincutd: %v\n", err)
		os.Exit(1)
	}
}

// checkpointPath is where the periodic graph checkpoint for a WAL
// lives: alongside the log, never inside it.
func checkpointPath(walPath string) string { return walPath + ".ckpt" }

// openState builds the boot snapshot and, with a WAL path, the log that
// /mutate appends to. Every boot with a WAL restores from its checkpoint
// and log first, so the log's next record always follows its last one;
// appending epoch 1 after older records would leave a log that no later
// boot can replay. Without a WAL the snapshot starts at epoch 0 and the
// returned log is nil.
func openState(ctx context.Context, g *mincut.Graph, opts mincut.SnapshotOptions, walPath string) (*mincut.Snapshot, *persist.WAL, error) {
	if walPath == "" {
		return mincut.NewSnapshot(g, opts), nil, nil
	}
	snap, err := restoreSnapshot(ctx, g, opts, walPath)
	if err != nil {
		return nil, nil, fmt.Errorf("restore: %w", err)
	}
	wal, err := persist.OpenWAL(walPath)
	if err != nil {
		return nil, nil, err
	}
	return snap, wal, nil
}

// restoreSnapshot rebuilds the pre-crash snapshot: the checkpoint (if
// any) replaces the base graph at its epoch, then the WAL records above
// that epoch are replayed in order. Certificates are not persisted —
// they are re-derived lazily, which is always sound.
func restoreSnapshot(ctx context.Context, g *mincut.Graph, opts mincut.SnapshotOptions, walPath string) (*mincut.Snapshot, error) {
	snap := mincut.NewSnapshot(g, opts)
	if ck, ok, err := persist.LoadCheckpoint(checkpointPath(walPath)); err != nil {
		return nil, err
	} else if ok {
		edges := make([]mincut.Edge, len(ck.Edges))
		for i, e := range ck.Edges {
			edges[i] = mincut.Edge{U: e.U, V: e.V, Weight: e.Weight}
		}
		cg, err := mincut.FromEdges(ck.Vertices, edges)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		snap = mincut.RestoreSnapshot(cg, ck.Epoch, opts)
	}
	_, err := persist.ReplayWAL(walPath, func(rec persist.Record) error {
		if rec.Epoch <= snap.Epoch() {
			return nil // covered by the checkpoint
		}
		batch, err := decodeBatch(rec.Mutations)
		if err != nil {
			return fmt.Errorf("epoch %d: %w", rec.Epoch, err)
		}
		ns, _, err := snap.Apply(ctx, batch)
		if err != nil {
			return fmt.Errorf("epoch %d: %w", rec.Epoch, err)
		}
		if ns.Epoch() != rec.Epoch {
			return fmt.Errorf("replaying record %d produced epoch %d", rec.Epoch, ns.Epoch())
		}
		snap = ns
		return nil
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// serverConfig carries the optional serving knobs so tests can build
// servers with persistence and tight admission bounds.
type serverConfig struct {
	queue           int   // admission queue depth; 0 = 4×workers
	maxMutateBytes  int64 // /mutate body cap; 0 = 1 MiB
	checkpointEvery uint64
	wal             *persist.WAL
}

// server is the HTTP layer: the current snapshot behind an atomic
// pointer (queries load it once and keep reading that epoch), an
// admission gate bounding concurrent + queued work, a coalescer sharing
// identical in-flight queries, per-endpoint counters, and the optional
// write-ahead log.
type server struct {
	snap atomic.Pointer[mincut.Snapshot]
	// mutateMu serializes Apply batches so each builds on the latest
	// epoch; queries never take it.
	mutateMu sync.Mutex
	gate     *serve.Gate
	coal     *serve.Coalescer
	mux      *http.ServeMux
	metrics  map[string]*endpointMetrics

	maxMutateBytes  int64
	checkpointEvery uint64
	wal             *persist.WAL
	workers, queue  int
}

// endpointMetrics accumulates per-endpoint counters and gauges,
// exposed by /stats.
type endpointMetrics struct {
	requests  atomic.Int64
	errors    atomic.Int64
	cacheHits atomic.Int64
	coalesced atomic.Int64
	shed      atomic.Int64
	inflight  atomic.Int64
	queued    atomic.Int64
	nanos     atomic.Int64
}

// metricsView is the JSON shape of one endpoint's counters. CacheHits
// counts only answers served from a certificate cache or a coalesced
// leader — /cutvalue and /stats never solve, so they are excluded from
// hit accounting entirely. Inflight and QueueDepth are instantaneous
// gauges.
type metricsView struct {
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	CacheHits  int64   `json:"cache_hits"`
	Coalesced  int64   `json:"coalesced"`
	Shed       int64   `json:"shed"`
	Inflight   int64   `json:"inflight"`
	QueueDepth int64   `json:"queue_depth"`
	AvgMicros  float64 `json:"avg_latency_us"`
}

// queryHandler produces a pure-data response so the pooled wrapper can
// marshal once and share the bytes across coalesced requests. hit
// reports whether a certificate cache answered (always false for
// endpoints that never consult one). A non-nil err is also encoded in
// status/body — except context cancellation, which the wrapper turns
// into leader re-election or a 503.
type queryHandler func(snap *mincut.Snapshot, r *http.Request) (status int, body any, hit bool, err error)

func newServer(snap *mincut.Snapshot, workers int, cfg serverConfig) *server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.queue <= 0 {
		cfg.queue = 4 * workers
	}
	if cfg.maxMutateBytes <= 0 {
		cfg.maxMutateBytes = 1 << 20
	}
	s := &server{
		gate:            serve.NewGate(workers, cfg.queue),
		coal:            serve.NewCoalescer(),
		mux:             http.NewServeMux(),
		metrics:         map[string]*endpointMetrics{},
		maxMutateBytes:  cfg.maxMutateBytes,
		checkpointEvery: cfg.checkpointEvery,
		wal:             cfg.wal,
		workers:         workers,
		queue:           cfg.queue,
	}
	s.snap.Store(snap)
	for _, ep := range []struct {
		name     string
		h        queryHandler
		coalesce bool
	}{
		{"/mincut", s.handleMinCut, true},
		{"/allcuts", s.handleAllCuts, true},
		{"/cutvalue", s.handleCutValue, true},
		{"/stats", s.handleStats, false}, // time-varying counters: never share
	} {
		s.metrics[ep.name] = &endpointMetrics{}
		s.mux.HandleFunc("GET "+ep.name, s.pooled(ep.name, ep.coalesce, ep.h))
	}
	s.metrics["/mutate"] = &endpointMetrics{}
	s.mux.HandleFunc("POST /mutate", s.handleMutate)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "epoch": s.snap.Load().Epoch(),
		})
	})
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// pooled wraps a query handler with coalescing of concurrent identical
// requests, admission control (bounded pool + bounded queue, shedding
// beyond both), a consistent snapshot load, and metrics. Coalescing sits
// OUTSIDE the gate: only the request that actually computes takes a pool
// slot, so a herd of identical queries costs one slot total instead of
// being shed at the door. The snapshot is loaded once per request: a
// concurrent /mutate swap never changes the graph a request is answering
// about mid-flight. The coalescing key pins endpoint, epoch and raw
// query, so two coalesced requests are answering the same question about
// the same graph.
func (s *server) pooled(name string, coalesce bool, h queryHandler) http.HandlerFunc {
	m := s.metrics[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		snap := s.snap.Load()
		run := func() (serve.Response, error) {
			m.queued.Add(1)
			release, err := s.gate.Admit(r.Context())
			m.queued.Add(-1)
			if err != nil {
				return serve.Response{}, err
			}
			defer release()
			m.inflight.Add(1)
			defer m.inflight.Add(-1)

			status, body, hit, herr := h(snap, r)
			if herr != nil && (errors.Is(herr, context.Canceled) || errors.Is(herr, context.DeadlineExceeded)) {
				// The computing request was cancelled: don't share a
				// stranger's cancellation, let a waiter recompute.
				return serve.Response{}, herr
			}
			buf, merr := json.Marshal(body)
			if merr != nil {
				return serve.Response{Status: http.StatusInternalServerError,
					Body: []byte(`{"error":"response marshal failed"}`), Err: true}, nil
			}
			return serve.Response{Status: status, Body: buf, Hit: hit, Err: herr != nil}, nil
		}

		var resp serve.Response
		var shared bool
		var err error
		if coalesce {
			key := name + "|" + strconv.FormatUint(snap.Epoch(), 10) + "|" + r.URL.RawQuery
			resp, shared, err = s.coal.Do(r.Context(), key, run)
		} else {
			resp, err = run()
		}
		m.requests.Add(1)
		m.nanos.Add(time.Since(start).Nanoseconds())
		if err != nil {
			m.errors.Add(1)
			if errors.Is(err, serve.ErrShed) {
				m.shed.Add(1)
				writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": "overloaded: admission queue full"})
			} else {
				// Own-context cancellation, while queued or computing
				// (as leader or waiter).
				writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
			}
			return
		}
		if resp.Hit || shared {
			m.cacheHits.Add(1)
		}
		if shared {
			m.coalesced.Add(1)
		}
		if resp.Err {
			m.errors.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.Status)
		w.Write(resp.Body)
	}
}

func (s *server) handleMinCut(snap *mincut.Snapshot, r *http.Request) (int, any, bool, error) {
	_, hit := snap.LambdaCached()
	cut, err := snap.MinCut(r.Context())
	if err != nil {
		return errorStatus(err), errorBody(err), hit, err
	}
	resp := map[string]any{
		"lambda":    cut.Value,
		"algorithm": cut.Algorithm.String(),
		"exact":     cut.Exact,
		"epoch":     snap.Epoch(),
		"cached":    hit,
	}
	if r.URL.Query().Get("side") != "" && cut.Side != nil {
		resp["side"] = smallerSide(cut.Side)
	}
	return http.StatusOK, resp, hit, nil
}

func (s *server) handleAllCuts(snap *mincut.Snapshot, r *http.Request) (int, any, bool, error) {
	_, hit := snap.CactusCached()
	res, err := snap.AllMinCuts(r.Context())
	if err != nil {
		return errorStatus(err), errorBody(err), hit, err
	}
	resp := map[string]any{
		"connected": res.Connected,
		"epoch":     snap.Epoch(),
		"cached":    hit,
	}
	if res.Connected {
		resp["lambda"] = res.Lambda
		resp["cuts"] = res.NumCuts()
		resp["kernel_vertices"] = res.KernelVertices
		if c := res.Cactus; c != nil {
			resp["cactus_nodes"] = c.NumNodes
			resp["cactus_cycles"] = c.NumCycles
		}
	} else {
		resp["components"] = res.Components
	}
	return http.StatusOK, resp, hit, nil
}

// handleCutValue evaluates an explicit cut. It never consults a
// certificate cache, so it always reports hit=false — counting these
// O(m) evaluations as "cache hits" would inflate the hit rate.
func (s *server) handleCutValue(snap *mincut.Snapshot, r *http.Request) (int, any, bool, error) {
	n := snap.Graph().NumVertices()
	side := make([]bool, n)
	spec := r.URL.Query().Get("side")
	if spec == "" {
		err := errors.New("missing ?side=v1,v2,... vertex list")
		return http.StatusBadRequest, errorBody(err), false, err
	}
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 0 || v >= n {
			err = fmt.Errorf("bad vertex %q in side list", f)
			return http.StatusBadRequest, errorBody(err), false, err
		}
		side[v] = true
	}
	return http.StatusOK, map[string]any{
		"value": snap.CutValue(side),
		"epoch": snap.Epoch(),
	}, false, nil
}

// handleStats reports graph statistics, per-endpoint counters, and the
// admission gauges. Like /cutvalue it never touches a certificate
// cache, so it is excluded from hit accounting.
func (s *server) handleStats(snap *mincut.Snapshot, r *http.Request) (int, any, bool, error) {
	eps := map[string]metricsView{}
	for name, m := range s.metrics {
		v := metricsView{
			Requests:   m.requests.Load(),
			Errors:     m.errors.Load(),
			CacheHits:  m.cacheHits.Load(),
			Coalesced:  m.coalesced.Load(),
			Shed:       m.shed.Load(),
			Inflight:   m.inflight.Load(),
			QueueDepth: m.queued.Load(),
		}
		if v.Requests > 0 {
			v.AvgMicros = float64(m.nanos.Load()) / float64(v.Requests) / 1e3
		}
		eps[name] = v
	}
	resp := map[string]any{
		"graph":     snap.Stats(),
		"epoch":     snap.Epoch(),
		"endpoints": eps,
		"admission": map[string]any{
			"inflight":       s.gate.Inflight(),
			"inflight_limit": s.workers,
			"queued":         s.gate.Queued(),
			"queue_limit":    s.queue,
		},
	}
	if cut, ok := snap.LambdaCached(); ok {
		resp["lambda_cached"] = cut.Value
	}
	if s.wal != nil {
		resp["wal"] = s.wal.Path()
	}
	return http.StatusOK, resp, false, nil
}

// mutateRequest is the POST /mutate body; the mutation wire format is
// shared with the WAL (internal/persist), so a WAL is literally a
// replayable sequence of /mutate bodies plus epochs.
type mutateRequest struct {
	Mutations []persist.Mutation `json:"mutations"`
}

// decodeBatch converts wire mutations to mincut.Mutation, rejecting
// unknown ops. Bounds and weight validation happen inside
// Snapshot.Apply, before any certificate logic.
func decodeBatch(ms []persist.Mutation) ([]mincut.Mutation, error) {
	batch := make([]mincut.Mutation, 0, len(ms))
	for _, m := range ms {
		switch m.Op {
		case "insert":
			batch = append(batch, mincut.InsertEdge(m.U, m.V, m.Weight))
		case "delete":
			batch = append(batch, mincut.DeleteEdge(m.U, m.V))
		default:
			return nil, fmt.Errorf("unknown op %q", m.Op)
		}
	}
	return batch, nil
}

// handleMutate applies a batch copy-on-write and atomically publishes
// the new epoch. Batches are serialized by mutateMu so each one builds
// on the latest snapshot; queries are never blocked — they keep reading
// whatever epoch they loaded. With a WAL, the batch is fsync'd to disk
// before the swap: an acknowledged mutation survives SIGKILL.
func (s *server) handleMutate(w http.ResponseWriter, r *http.Request) {
	m := s.metrics["/mutate"]
	start := time.Now()
	m.requests.Add(1)
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	defer func() { m.nanos.Add(time.Since(start).Nanoseconds()) }()

	r.Body = http.MaxBytesReader(w, r.Body, s.maxMutateBytes)
	var req mutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		m.errors.Add(1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error": fmt.Sprintf("request body exceeds %d bytes", s.maxMutateBytes),
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad JSON: " + err.Error()})
		return
	}
	batch, err := decodeBatch(req.Mutations)
	if err != nil {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}

	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()
	cur := s.snap.Load()
	next, reused, err := cur.Apply(r.Context(), batch)
	if err != nil {
		m.errors.Add(1)
		writeError(w, err)
		return
	}
	if s.wal != nil {
		rec := persist.Record{Epoch: next.Epoch(), Mutations: req.Mutations}
		if err := s.wal.Append(rec); err != nil {
			// Refuse to acknowledge what we cannot persist: the epoch is
			// not published and the mutation is lost on purpose.
			m.errors.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "wal append failed: " + err.Error()})
			return
		}
	}
	s.snap.Store(next)
	if reused.Lambda {
		m.cacheHits.Add(1)
	}
	s.maybeCheckpoint(next)
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":  next.Epoch(),
		"reused": reused,
	})
}

// maybeCheckpoint persists the full graph every checkpointEvery batches
// and truncates the WAL. Called under mutateMu. Checkpoint failures are
// logged, not fatal: the WAL still has the history.
func (s *server) maybeCheckpoint(snap *mincut.Snapshot) {
	if s.wal == nil || s.checkpointEvery == 0 || snap.Epoch() == 0 || snap.Epoch()%s.checkpointEvery != 0 {
		return
	}
	g := snap.Graph()
	ck := persist.Checkpoint{Epoch: snap.Epoch(), Vertices: g.NumVertices()}
	ck.Edges = make([]persist.Edge, 0, g.NumEdges())
	g.ForEachEdge(func(u, v int32, w int64) {
		ck.Edges = append(ck.Edges, persist.Edge{U: u, V: v, Weight: w})
	})
	if err := persist.SaveCheckpoint(checkpointPath(s.wal.Path()), ck); err != nil {
		fmt.Fprintf(os.Stderr, "mincutd: checkpoint: %v\n", err)
		return
	}
	if err := s.wal.Reset(); err != nil {
		fmt.Fprintf(os.Stderr, "mincutd: wal truncate after checkpoint: %v\n", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func errorBody(err error) map[string]any { return map[string]any{"error": err.Error()} }

// errorStatus maps solver/apply errors to HTTP: cancellation (the
// client went away or gave up) is 503, everything else — including
// mincut.ErrInvalidMutation — a 400-class problem with the request or
// graph.
func errorStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, errorStatus(err), errorBody(err))
}

func smallerSide(side []bool) []int32 {
	var a, b []int32
	for v, in := range side {
		if in {
			a = append(a, int32(v))
		} else {
			b = append(b, int32(v))
		}
	}
	if len(a) <= len(b) {
		return a
	}
	return b
}
