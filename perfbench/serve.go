package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	mincut "repro"
	"repro/internal/graph"
	"repro/internal/graphio"
)

// daemon is one cmd/mincutd process serving a graph from its own
// scratch directory, with a write-ahead log and a pprof listener.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}
	dir    string
	url    string
	pprof  string
}

// daemonSeed is mincutd's solver seed in a run with the given seed.
func daemonSeed(seed uint64) uint64 { return mix(seed) | 1 }

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon writes g as METIS, starts mincutd on it and waits for
// its first healthy answer.
func startDaemon(ctx context.Context, e *env, g *graph.Graph) (*daemon, error) {
	dir, err := os.MkdirTemp(e.workDir, "mincutd-")
	if err != nil {
		return nil, err
	}
	graphPath := filepath.Join(dir, "graph.metis")
	f, err := os.Create(graphPath)
	if err != nil {
		return nil, err
	}
	if err := graphio.WriteMETIS(f, g); err != nil {
		f.Close()
		return nil, fmt.Errorf("write %s: %w", graphPath, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	paddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(e.daemon, "-listen", addr, "-pprof", paddr,
		"-wal", filepath.Join(dir, "wal.jsonl"), "-seed", strconv.FormatUint(daemonSeed(e.seed), 10), graphPath)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", e.daemon, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), dir: dir, url: "http://" + addr, pprof: "http://" + paddr}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			log, _ := os.ReadFile(filepath.Join(dir, "daemon.log"))
			return nil, fmt.Errorf("mincutd exited during start-up: %s", strings.TrimSpace(string(log)))
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("mincutd not healthy after 60s")
		}
	}
}

// stop ends the daemon (SIGTERM, then SIGKILL after 15s), waits for it
// and removes its directory. Calling it again does nothing more.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	os.RemoveAll(d.dir)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) of a
// process in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// memStats reads TotalAlloc and NumGC of the daemon's Go runtime from
// its pprof heap profile; gc=1 runs a collection first.
func (d *daemon) memStats(gc bool) (alloc, numGC uint64, err error) {
	u := d.pprof + "/debug/pprof/heap?debug=1"
	if gc {
		u += "&gc=1"
	}
	resp, err := http.Get(u)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	found := 0
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			alloc, err = strconv.ParseUint(v, 10, 64)
			found++
		} else if v, ok := strings.CutPrefix(sc.Text(), "# NumGC = "); ok {
			numGC, err = strconv.ParseUint(v, 10, 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, errors.New("pprof heap profile lacks TotalAlloc/NumGC")
	}
	return alloc, numGC, sc.Err()
}

// endpointStats is one endpoint's counters from GET /stats.
type endpointStats struct {
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	CacheHits int64 `json:"cache_hits"`
	Coalesced int64 `json:"coalesced"`
	Shed      int64 `json:"shed"`
}

func (d *daemon) stats() (map[string]endpointStats, error) {
	resp, err := http.Get(d.url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Endpoints map[string]endpointStats `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return body.Endpoints, nil
}

// readsPerWrite is how many reads the reader connection sends per write.
const readsPerWrite = 8

// readObs is one GET /mincut?side=1 answer, checked after the run.
type readObs struct {
	epoch  uint64
	lambda int64
	side   []int32
}

// session is a daemon serving a workload's write base, driven by two
// client connections in a closed loop: one sends every write, each
// followed by a read of the epoch it produced; the other sends
// readsPerWrite reads per acknowledged write.
type session struct {
	d        *daemon
	base     *graph.Graph
	ws       *writeStream
	epoch    uint64          // epoch of the last acknowledged write
	writeLat []time.Duration // latency of the write of each batch of ws
	reads    []readObs
	failed   []string
}

// openSession builds the write stream for the input, starts the daemon
// on the write base and sends the warm-up read (the first solve).
func openSession(ctx context.Context, e *env, in input) (*session, error) {
	ws := newWriteStream(in, mix(e.seed)^0x5eed)
	base, err := ws.base(in.g)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, e, base)
	if err != nil {
		return nil, err
	}
	s := &session{d: d, base: base, ws: ws}
	obs, err := s.read(ctx, newConn())
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up read: %w", err)
	}
	s.reads = append(s.reads, obs)
	return s, nil
}

func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 120 * time.Second}
}

func (s *session) read(ctx context.Context, c *http.Client) (readObs, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.d.url+"/mincut?side=1", nil)
	if err != nil {
		return readObs{}, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return readObs{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return readObs{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return readObs{}, fmt.Errorf("GET /mincut: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var r struct {
		Lambda int64   `json:"lambda"`
		Epoch  uint64  `json:"epoch"`
		Exact  bool    `json:"exact"`
		Side   []int32 `json:"side"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return readObs{}, fmt.Errorf("GET /mincut: %w", err)
	}
	if !r.Exact {
		return readObs{}, fmt.Errorf("GET /mincut at epoch %d: inexact answer", r.Epoch)
	}
	return readObs{epoch: r.Epoch, lambda: r.Lambda, side: r.Side}, nil
}

func (s *session) write(ctx context.Context, c *http.Client, batch []mincut.Mutation) error {
	body, err := json.Marshal(map[string]any{"mutations": wire(batch)})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.d.url+"/mutate", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /mutate: %d %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	var r struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return fmt.Errorf("POST /mutate: %w", err)
	}
	if r.Epoch != s.epoch+1 {
		return fmt.Errorf("POST /mutate: epoch %d, want %d", r.Epoch, s.epoch+1)
	}
	s.epoch = r.Epoch
	return nil
}

// drive runs both connections in a closed loop for dur and returns the
// phase measured on them, with the daemon's peak RSS and allocations.
func (s *session) drive(ctx context.Context, dur time.Duration, tr *tracer, opBase int64) (phase, error) {
	ph := phase{writesAreOps: true}
	pid := s.d.cmd.Process.Pid
	alloc0, gc0, err := s.d.memStats(true)
	if err != nil {
		return ph, err
	}
	if err := resetPeakRSS(pid); err != nil {
		return ph, err
	}
	var mu sync.Mutex // guards ph and s.reads/s.failed across the two connections
	var ops int64
	nextOp := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		ops++
		return opBase + ops
	}
	record := func(lat time.Duration, isWrite bool, obs readObs, err error) {
		mu.Lock()
		defer mu.Unlock()
		ph.attempted++
		switch {
		case err != nil:
			ph.failed++
			if len(s.failed) < 5 {
				s.failed = append(s.failed, err.Error())
			}
		case isWrite:
			ph.writes = append(ph.writes, lat)
		default:
			ph.primary = append(ph.primary, lat)
			s.reads = append(s.reads, obs)
		}
	}
	timedRead := func(c *http.Client) {
		op := nextOp()
		id := tr.begin("mincutd GET /mincut", 0, op)
		t := time.Now()
		obs, err := s.read(ctx, c)
		lat := time.Since(t)
		tr.end(id)
		record(lat, false, obs, err)
	}
	steal0, total0 := cpuTicks()
	start := time.Now()
	deadline := start.Add(dur)
	// Each acknowledged write releases readsPerWrite reads on the reader
	// connection, which with the writer's own read fixes the mix at
	// readsPerWrite+1 reads per write. The buffer holds one write's
	// tokens, so the writer cannot run ahead of the reader.
	tokens := make(chan struct{}, readsPerWrite)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the writer connection
		defer wg.Done()
		defer close(tokens)
		c := newConn()
		for time.Now().Before(deadline) && ctx.Err() == nil {
			batch := s.ws.next()
			op := nextOp()
			id := tr.begin("mincutd POST /mutate", 0, op)
			t := time.Now()
			err := s.write(ctx, c, batch)
			lat := time.Since(t)
			tr.end(id)
			s.writeLat = append(s.writeLat, lat)
			record(lat, true, readObs{}, err)
			if err != nil {
				return // later batches would delete edges this one did not
			}
			for i := 0; i < readsPerWrite; i++ {
				tokens <- struct{}{}
			}
			timedRead(c)
		}
	}()
	go func() { // the reader connection
		defer wg.Done()
		c := newConn()
		for range tokens {
			timedRead(c)
		}
	}()
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.stealPct = stealSince(steal0, total0)
	if ph.peakRSSMB, err = peakRSSMB(pid); err != nil {
		return ph, err
	}
	alloc1, gc1, err := s.d.memStats(false)
	if err != nil {
		return ph, err
	}
	ph.allocBytes, ph.gcs, ph.allocOps = alloc1-alloc0, gc1-gc0, len(ph.primary)+len(ph.writes)
	return ph, ctx.Err()
}

// verify replays the session's batches in process, from a snapshot of
// the same base graph, and checks every read against the minimum cut
// of the epoch it reports: λ must match a fresh solve of that epoch's
// graph, and the returned side must be a proper cut of value λ.
func (s *session) verify(ctx context.Context, workers int) (wrong []string, err error) {
	byEpoch := map[uint64][]readObs{}
	var last uint64
	for _, r := range s.reads {
		byEpoch[r.epoch] = append(byEpoch[r.epoch], r)
		last = max(last, r.epoch)
	}
	if last > s.epoch {
		return []string{fmt.Sprintf("a read reports epoch %d, after the last write's epoch %d", last, s.epoch)}, nil
	}
	replay := mincut.NewSnapshot(s.base, mincut.SnapshotOptions{})
	for epoch := uint64(0); epoch <= last; epoch++ {
		if reads := byEpoch[epoch]; len(reads) > 0 {
			g := replay.Graph()
			want, err := mincut.NewSnapshot(g, mincut.SnapshotOptions{Solve: mincut.Options{Workers: workers, Seed: epoch + 1}}).MinCut(ctx)
			if err != nil {
				return nil, err
			}
			var checked [][]int32
			for _, r := range reads {
				if r.lambda != want.Value {
					wrong = append(wrong, fmt.Sprintf("epoch %d: daemon λ=%d, replay λ=%d", epoch, r.lambda, want.Value))
					continue
				}
				if slices.ContainsFunc(checked, func(c []int32) bool { return slices.Equal(c, r.side) }) {
					continue
				}
				checked = append(checked, r.side)
				if msg := checkSide(g, r.side, want.Value); msg != "" {
					wrong = append(wrong, fmt.Sprintf("epoch %d: %s", epoch, msg))
				}
			}
		}
		if epoch < last {
			// The replay snapshot never caches a certificate, so Apply
			// takes its batched-rebuild path: the graphs, not the reuse
			// rules under test, carry the replay.
			if replay, _, err = replay.Apply(ctx, s.ws.batches[epoch]); err != nil {
				return nil, fmt.Errorf("replay batch %d: %w", epoch, err)
			}
		}
	}
	return wrong, nil
}

// checkSide checks that side lists a proper vertex subset whose cut
// has value lambda.
func checkSide(g *graph.Graph, side []int32, lambda int64) string {
	n := g.NumVertices()
	if len(side) == 0 || len(side) >= n {
		return fmt.Sprintf("side of %d vertices is not a proper cut", len(side))
	}
	in := make([]bool, n)
	for _, v := range side {
		if v < 0 || int(v) >= n || in[v] {
			return fmt.Sprintf("side lists vertex %d out of range or twice", v)
		}
		in[v] = true
	}
	if got := mincut.CutValue(g, in); got != lambda {
		return fmt.Sprintf("side has cut value %d, want %d", got, lambda)
	}
	return ""
}
