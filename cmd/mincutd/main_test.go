package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mincut "repro"
	"repro/internal/serve"
)

// testGraph builds two K5 blocks joined by two unit bridges: λ=2, and
// the bridges are exactly the crossing edges of every minimum cut.
func testGraph(t *testing.T) *mincut.Graph {
	t.Helper()
	var edges []mincut.Edge
	for b := int32(0); b < 2; b++ {
		off := b * 5
		for i := int32(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				edges = append(edges, mincut.Edge{U: off + i, V: off + j, Weight: 2})
			}
		}
	}
	edges = append(edges, mincut.Edge{U: 0, V: 5, Weight: 1}, mincut.Edge{U: 1, V: 6, Weight: 1})
	g, err := mincut.FromEdges(10, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestServer(t *testing.T, g *mincut.Graph) *server {
	t.Helper()
	return newTestServerCfg(t, g, serverConfig{})
}

func newTestServerCfg(t *testing.T, g *mincut.Graph, cfg serverConfig) *server {
	t.Helper()
	return newServer(mincut.NewSnapshot(g, mincut.SnapshotOptions{
		Solve:   mincut.Options{Seed: 1},
		AllCuts: mincut.AllCutsOptions{Seed: 1, NoMaterialize: true},
	}), 8, cfg)
}

func getJSON(t *testing.T, srv *server, path string, into any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if into != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec
}

// TestConcurrentMinCut is the acceptance check: ≥64 concurrent /mincut
// requests against one snapshot all answer identically to Solve.
func TestConcurrentMinCut(t *testing.T) {
	g := testGraph(t)
	want := mincut.Solve(g, mincut.Options{Seed: 1})
	srv := newTestServer(t, g)

	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/mincut", nil))
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
				return
			}
			var resp struct {
				Lambda int64 `json:"lambda"`
				Exact  bool  `json:"exact"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				errs <- err
				return
			}
			if resp.Lambda != want.Value || !resp.Exact {
				errs <- fmt.Errorf("lambda=%d exact=%v, want %d exact", resp.Lambda, resp.Exact, want.Value)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All but the first request must have been cache hits.
	var stats struct {
		Endpoints map[string]struct {
			Requests  int64 `json:"requests"`
			CacheHits int64 `json:"cache_hits"`
		} `json:"endpoints"`
	}
	getJSON(t, srv, "/stats", &stats)
	mc := stats.Endpoints["/mincut"]
	if mc.Requests != clients {
		t.Fatalf("recorded %d /mincut requests, want %d", mc.Requests, clients)
	}
	if mc.CacheHits < clients-8 {
		t.Errorf("only %d/%d cache hits; the snapshot cache is not being shared", mc.CacheHits, clients)
	}
}

func TestMutateSwapsEpochAndReuses(t *testing.T) {
	srv := newTestServer(t, testGraph(t))

	var mc struct {
		Lambda int64  `json:"lambda"`
		Epoch  uint64 `json:"epoch"`
	}
	getJSON(t, srv, "/allcuts", nil) // build λ + cactus
	getJSON(t, srv, "/mincut", &mc)
	if mc.Lambda != 2 || mc.Epoch != 0 {
		t.Fatalf("initial state lambda=%d epoch=%d, want 2/0", mc.Lambda, mc.Epoch)
	}

	post := func(body string) (int, map[string]json.RawMessage) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/mutate", bytes.NewBufferString(body)))
		var resp map[string]json.RawMessage
		json.Unmarshal(rec.Body.Bytes(), &resp)
		return rec.Code, resp
	}

	// Non-crossing delete inside a K5 block: certificates carry over.
	code, resp := post(`{"mutations":[{"op":"delete","u":2,"v":3}]}`)
	if code != http.StatusOK {
		t.Fatalf("mutate: status %d: %v", code, resp)
	}
	var reused struct {
		Lambda bool `json:"lambda"`
		Cactus bool `json:"cactus"`
	}
	json.Unmarshal(resp["reused"], &reused)
	if !reused.Lambda || !reused.Cactus {
		t.Errorf("non-crossing delete: reused=%+v, want both certificates carried", reused)
	}
	getJSON(t, srv, "/mincut", &mc)
	if mc.Lambda != 2 || mc.Epoch != 1 {
		t.Errorf("after non-crossing delete: lambda=%d epoch=%d, want 2/1", mc.Lambda, mc.Epoch)
	}

	// Crossing delete (a bridge): the λ−w rule carries λ=2−1=1 with the
	// crossing witness; the cactus is dropped.
	code, resp = post(`{"mutations":[{"op":"delete","u":0,"v":5}]}`)
	if code != http.StatusOK {
		t.Fatalf("mutate: status %d: %v", code, resp)
	}
	var reusedDel struct {
		Lambda       bool `json:"lambda"`
		Cactus       bool `json:"cactus"`
		DeleteReuses int  `json:"delete_reuses"`
	}
	json.Unmarshal(resp["reused"], &reusedDel)
	if !reusedDel.Lambda || reusedDel.Cactus || reusedDel.DeleteReuses != 1 {
		t.Errorf("crossing delete: reused=%+v, want λ−w carried (lambda=true, delete_reuses=1) and cactus dropped", reusedDel)
	}
	getJSON(t, srv, "/mincut", &mc)
	if mc.Lambda != 1 || mc.Epoch != 2 {
		t.Errorf("after crossing delete: lambda=%d epoch=%d, want 1/2", mc.Lambda, mc.Epoch)
	}

	// Bad requests.
	if code, _ := post(`{"mutations":[{"op":"frobnicate","u":0,"v":1}]}`); code != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", code)
	}
	if code, _ := post(`{"mutations":[{"op":"delete","u":0,"v":5}]}`); code != http.StatusBadRequest {
		t.Errorf("deleting a missing edge: status %d, want 400", code)
	}
}

func TestEndpoints(t *testing.T) {
	srv := newTestServer(t, testGraph(t))

	var hz struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
	}
	if rec := getJSON(t, srv, "/healthz", &hz); rec.Code != http.StatusOK || hz.Status != "ok" {
		t.Errorf("/healthz: %d %q", rec.Code, hz.Status)
	}

	var ac struct {
		Lambda int64 `json:"lambda"`
		Cuts   int   `json:"cuts"`
	}
	getJSON(t, srv, "/allcuts", &ac)
	if ac.Lambda != 2 || ac.Cuts != 1 {
		t.Errorf("/allcuts: lambda=%d cuts=%d, want 2/1", ac.Lambda, ac.Cuts)
	}

	// The cut {0..4 | 5..9} costs exactly the two unit bridges.
	var cv struct {
		Value int64 `json:"value"`
	}
	getJSON(t, srv, "/cutvalue?side=0,1,2,3,4", &cv)
	if cv.Value != 2 {
		t.Errorf("/cutvalue: %d, want 2", cv.Value)
	}
	if rec := getJSON(t, srv, "/cutvalue", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("/cutvalue without side: status %d, want 400", rec.Code)
	}
	if rec := getJSON(t, srv, "/cutvalue?side=99", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("/cutvalue out of range: status %d, want 400", rec.Code)
	}

	var gs struct {
		Graph struct {
			Vertices int `json:"vertices"`
			Edges    int `json:"edges"`
		} `json:"graph"`
	}
	getJSON(t, srv, "/stats", &gs)
	if gs.Graph.Vertices != 10 || gs.Graph.Edges != 22 {
		t.Errorf("/stats graph: %+v, want n=10 m=22", gs.Graph)
	}

	// The side parameter returns the smaller side of the witness cut.
	var side struct {
		Side []int32 `json:"side"`
	}
	getJSON(t, srv, "/mincut?side=1", &side)
	if len(side.Side) != 5 {
		t.Errorf("/mincut?side=1: side of %d vertices, want 5", len(side.Side))
	}
}

// TestCancelledRequestDoesNotPoison is the acceptance check that a
// cancelled in-flight query leaves the shared snapshot healthy: the
// next request recomputes and succeeds.
func TestCancelledRequestDoesNotPoison(t *testing.T) {
	srv := newTestServer(t, testGraph(t))

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the solve aborts at its first boundary
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/allcuts", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled /allcuts: status %d, want 503", rec.Code)
	}

	var ac struct {
		Lambda int64 `json:"lambda"`
	}
	if rec := getJSON(t, srv, "/allcuts", &ac); rec.Code != http.StatusOK || ac.Lambda != 2 {
		t.Fatalf("follow-up /allcuts after cancellation: status %d lambda=%d, want 200/2", rec.Code, ac.Lambda)
	}
}

// TestQueriesDuringMutation exercises the epoch swap under live HTTP
// traffic: readers hammer /mincut while /mutate swaps snapshots; every
// answer must be a valid λ for some published epoch.
func TestQueriesDuringMutation(t *testing.T) {
	srv := newTestServer(t, testGraph(t))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	getJSON(t, srv, "/mincut", nil) // warm epoch 0

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/mincut")
				if err != nil {
					t.Error(err)
					return
				}
				var mc struct {
					Lambda int64 `json:"lambda"`
				}
				json.NewDecoder(resp.Body).Decode(&mc)
				resp.Body.Close()
				if mc.Lambda != 1 && mc.Lambda != 2 {
					t.Errorf("observed lambda=%d, want 1 or 2", mc.Lambda)
					return
				}
			}
		}()
	}

	for i := 0; i < 10; i++ {
		body := `{"mutations":[{"op":"delete","u":0,"v":5}]}`
		if i%2 == 1 {
			body = `{"mutations":[{"op":"insert","u":0,"v":5,"weight":1}]}`
		}
		resp, err := http.Post(ts.URL+"/mutate", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	var hz struct {
		Epoch uint64 `json:"epoch"`
	}
	getJSON(t, srv, "/healthz", &hz)
	if hz.Epoch != 10 {
		t.Errorf("final epoch %d, want 10", hz.Epoch)
	}
}

// TestMutateValidation400 is the headline regression test: a /mutate
// with out-of-range or negative vertex ids, zero weights or self-loop
// deletes — issued while certificates are cached, which used to panic
// the daemon inside Apply — must return 400 and leave the daemon
// serving the old epoch.
func TestMutateValidation400(t *testing.T) {
	srv := newTestServer(t, testGraph(t))
	// Warm both certificate caches: the historical panic required a
	// cached witness (lam.Side[u]) or cactus (Crosses(u,v)).
	getJSON(t, srv, "/allcuts", nil)
	getJSON(t, srv, "/mincut", nil)

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/mutate", bytes.NewBufferString(body)))
		return rec
	}
	bad := []string{
		`{"mutations":[{"op":"insert","u":-1,"v":3,"weight":1}]}`,
		`{"mutations":[{"op":"delete","u":0,"v":-5}]}`,
		`{"mutations":[{"op":"insert","u":10,"v":3,"weight":1}]}`,                             // u == n
		`{"mutations":[{"op":"delete","u":0,"v":1073741824}]}`,                                // huge id
		`{"mutations":[{"op":"insert","u":0,"v":1,"weight":0}]}`,                              // zero weight
		`{"mutations":[{"op":"insert","u":0,"v":1,"weight":-3}]}`,                             // negative weight
		`{"mutations":[{"op":"delete","u":4,"v":4}]}`,                                         // self loop
		`{"mutations":[{"op":"delete","u":2,"v":3},{"op":"insert","u":0,"v":99,"weight":1}]}`, // valid then invalid
		`{"mutations":[{"op":"frobnicate","u":0,"v":1}]}`,
		`not json at all`,
	}
	for _, body := range bad {
		if rec := post(body); rec.Code != http.StatusBadRequest {
			t.Errorf("POST /mutate %s: status %d, want 400 (body %s)", body, rec.Code, rec.Body.String())
		}
		var e struct {
			Error string `json:"error"`
		}
		rec := post(body)
		if json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Errorf("POST /mutate %s: missing JSON error body: %s", body, rec.Body.String())
		}
	}

	// The daemon must still be serving epoch 0 with the right λ.
	var mc struct {
		Lambda int64  `json:"lambda"`
		Epoch  uint64 `json:"epoch"`
	}
	if rec := getJSON(t, srv, "/mincut", &mc); rec.Code != http.StatusOK || mc.Lambda != 2 || mc.Epoch != 0 {
		t.Fatalf("daemon unhealthy after invalid batches: status %d lambda=%d epoch=%d", rec.Code, mc.Lambda, mc.Epoch)
	}
}

// TestMutateMissingEdge400: a batch deleting an edge that does not exist
// at its position is a 400 carrying the same indexed error on a cold
// daemon (deletes batched) and a warm one (deletes checked one by one).
func TestMutateMissingEdge400(t *testing.T) {
	// 0-7 joins the two cliques nowhere; the batch then reinserts it and
	// deletes a real edge, so only the first mutation is at fault.
	const body = `{"mutations":[{"op":"delete","u":0,"v":7},` +
		`{"op":"insert","u":0,"v":7,"weight":1},{"op":"delete","u":1,"v":2}]}`
	const want = "mincut: mutation 0 deletes nonexistent edge (0,7)"
	for _, warm := range []bool{false, true} {
		srv := newTestServer(t, testGraph(t))
		if warm {
			getJSON(t, srv, "/allcuts", nil)
			getJSON(t, srv, "/mincut", nil)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/mutate", bytes.NewBufferString(body)))
		var e struct {
			Error string `json:"error"`
		}
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error != want {
			t.Errorf("warm=%v: status %d body %s, want 400 with %q", warm, rec.Code, rec.Body.String(), want)
		}
	}
}

// TestMutateBodyLimit413: oversized /mutate bodies are rejected with a
// JSON 413 before any decoding work.
func TestMutateBodyLimit413(t *testing.T) {
	srv := newTestServerCfg(t, testGraph(t), serverConfig{maxMutateBytes: 256})

	big := `{"mutations":[` + strings.Repeat(`{"op":"insert","u":0,"v":1,"weight":1},`, 100) +
		`{"op":"insert","u":0,"v":1,"weight":1}]}`
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/mutate", bytes.NewBufferString(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("413 body not a JSON error: %q", rec.Body.String())
	}

	// A small batch still goes through on the same server.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/mutate",
		bytes.NewBufferString(`{"mutations":[{"op":"insert","u":0,"v":9,"weight":1}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("small batch after 413: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestStatsHitAccounting: /cutvalue and /stats never consult a
// certificate cache, so they must not inflate cache_hits; /mincut's
// hit rate must reflect reality (first query a miss, the rest hits).
func TestStatsHitAccounting(t *testing.T) {
	srv := newTestServer(t, testGraph(t))

	for i := 0; i < 10; i++ {
		getJSON(t, srv, "/cutvalue?side=0,1,2,3,4", nil)
	}
	for i := 0; i < 5; i++ {
		getJSON(t, srv, "/stats", nil)
	}
	for i := 0; i < 8; i++ {
		getJSON(t, srv, "/mincut", nil)
	}

	var stats struct {
		Endpoints map[string]struct {
			Requests  int64 `json:"requests"`
			CacheHits int64 `json:"cache_hits"`
		} `json:"endpoints"`
	}
	getJSON(t, srv, "/stats", &stats)

	if cv := stats.Endpoints["/cutvalue"]; cv.Requests != 10 || cv.CacheHits != 0 {
		t.Errorf("/cutvalue: %+v, want 10 requests and ZERO cache hits", cv)
	}
	if st := stats.Endpoints["/stats"]; st.CacheHits != 0 {
		t.Errorf("/stats: %+v, want zero cache hits", st)
	}
	mc := stats.Endpoints["/mincut"]
	if mc.Requests != 8 || mc.CacheHits != 7 {
		t.Errorf("/mincut: %+v, want 8 requests with exactly 7 hits (first one solves)", mc)
	}
}

// TestCoalescingSharesResponses pins the HTTP layer to the coalescer:
// the test occupies the coalescing key a /mincut request would use, so
// the HTTP request becomes a follower and receives the leader's exact
// bytes, counted in the coalesced metric.
func TestCoalescingSharesResponses(t *testing.T) {
	srv := newTestServer(t, testGraph(t))
	getJSON(t, srv, "/mincut", nil) // warm the cache so handlers are instant

	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go srv.coal.Do(context.Background(), "/mincut|0|", func() (serve.Response, error) {
		close(leaderIn)
		<-release
		return serve.Response{Status: http.StatusOK, Body: []byte(`{"planted":true}`), Hit: true}, nil
	})
	<-leaderIn

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/mincut", nil))
		done <- rec
	}()
	// Let the request park behind the leader, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	rec := <-done
	if rec.Code != http.StatusOK || rec.Body.String() != `{"planted":true}` {
		t.Fatalf("follower got %d %q, want the leader's planted response", rec.Code, rec.Body.String())
	}

	var stats struct {
		Endpoints map[string]struct {
			Coalesced int64 `json:"coalesced"`
			CacheHits int64 `json:"cache_hits"`
		} `json:"endpoints"`
	}
	getJSON(t, srv, "/stats", &stats)
	if stats.Endpoints["/mincut"].Coalesced != 1 {
		t.Fatalf("/mincut coalesced = %d, want 1", stats.Endpoints["/mincut"].Coalesced)
	}
}

// TestAdmissionControlSheds: with the worker pool fully occupied and
// the queue full, further requests are shed with 429; a queued request
// whose client disconnects gets 503; once capacity frees, requests
// succeed again. The requests use distinct query strings: identical
// requests would coalesce (sharing one pool slot) instead of exercising
// the gate — that path is TestCoalescingSharesResponses.
func TestAdmissionControlSheds(t *testing.T) {
	g := testGraph(t)
	srv := newServer(mincut.NewSnapshot(g, mincut.SnapshotOptions{
		Solve: mincut.Options{Seed: 1},
	}), 1, serverConfig{queue: 1})
	getJSON(t, srv, "/mincut", nil) // warm

	// Occupy the single worker slot from the outside.
	release, err := srv.gate.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One request queues.
	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	queuedDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/mincut?probe=queued", nil).WithContext(queuedCtx))
		queuedDone <- rec
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.gate.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: the next request is shed with 429.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/mincut?probe=shed", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}

	// Gauges visible in /stats — /stats itself must not be gated away:
	// it competes for the same pool, so read the gate directly.
	if srv.gate.Queued() != 1 || srv.gate.Inflight() != 1 {
		t.Fatalf("gauges: inflight=%d queued=%d, want 1/1", srv.gate.Inflight(), srv.gate.Queued())
	}

	// The queued client disconnects: 503.
	cancelQueued()
	if rec := <-queuedDone; rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled-while-queued: status %d, want 503", rec.Code)
	}

	// Capacity frees: back to 200s, and the shed counter shows up.
	release()
	var stats struct {
		Endpoints map[string]struct {
			Shed int64 `json:"shed"`
		} `json:"endpoints"`
	}
	if rec := getJSON(t, srv, "/stats", &stats); rec.Code != http.StatusOK {
		t.Fatalf("/stats after overload: %d", rec.Code)
	}
	if stats.Endpoints["/mincut"].Shed != 1 {
		t.Fatalf("/mincut shed = %d, want 1", stats.Endpoints["/mincut"].Shed)
	}
	if rec := getJSON(t, srv, "/mincut", nil); rec.Code != http.StatusOK {
		t.Fatalf("/mincut after overload: %d", rec.Code)
	}
}

// parkCounter counts Done calls on a request's context. Before the gate
// slot frees, the herd's one leader calls Done once as it queues at the
// gate and each coalesced follower once as it parks behind the leader;
// a request shed with 429 never calls it.
type parkCounter struct {
	context.Context
	parked *atomic.Int32
}

func (c parkCounter) Done() <-chan struct{} {
	c.parked.Add(1)
	return c.Context.Done()
}

// TestCoalescedHerdTakesOneSlot: the snapshot's single flight runs one
// solve per epoch, but every request waiting on it still holds a gate
// slot or a queue place. The coalescer parks followers outside the gate,
// so a cold herd of identical queries costs one slot. With 1 worker, a
// queue of 1 and the slot held, 16 identical /mincut requests must all
// answer 200 with one body; without coalescing, 15 of them get 429.
func TestCoalescedHerdTakesOneSlot(t *testing.T) {
	srv := newServer(mincut.NewSnapshot(testGraph(t), mincut.SnapshotOptions{
		Solve: mincut.Options{Seed: 1},
	}), 1, serverConfig{queue: 1})

	release, err := srv.gate.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	freeSlot := func() { once.Do(release) }
	defer freeSlot()

	const herd = 16
	var parked atomic.Int32
	ctx := parkCounter{Context: context.Background(), parked: &parked}
	recs := make([]*httptest.ResponseRecorder, herd)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(rec *httptest.ResponseRecorder) {
			defer wg.Done()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/mincut?side=1", nil).WithContext(ctx))
		}(recs[i])
	}
	deadline := time.Now().Add(5 * time.Second)
	for parked.Load() < herd || srv.gate.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests waiting, %d queued at the gate; want all %d waiting and 1 queued",
				parked.Load(), herd, srv.gate.Queued(), herd)
		}
		time.Sleep(time.Millisecond)
	}
	freeSlot()
	wg.Wait()

	for i, rec := range recs {
		if rec.Code != http.StatusOK || rec.Body.String() != recs[0].Body.String() {
			t.Fatalf("request %d: %d %q, want 200 %q", i, rec.Code, rec.Body.String(), recs[0].Body.String())
		}
	}
	var stats struct {
		Endpoints map[string]struct {
			Shed      int64 `json:"shed"`
			Coalesced int64 `json:"coalesced"`
		} `json:"endpoints"`
	}
	getJSON(t, srv, "/stats", &stats)
	if mc := stats.Endpoints["/mincut"]; mc.Shed != 0 || mc.Coalesced != herd-1 {
		t.Fatalf("/mincut shed=%d coalesced=%d, want 0 and %d", mc.Shed, mc.Coalesced, herd-1)
	}
}
