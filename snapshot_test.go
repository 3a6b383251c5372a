package mincut

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// twoCliques builds two K_k blocks joined by two unit bridge edges
// (0,k) and (1,k+1): λ = 2, and for k ≥ 5 the bridge cut is the unique
// minimum cut and every inner pair has local connectivity k-1 ≥ λ+2.
func twoCliques(t *testing.T, k int) *Graph {
	t.Helper()
	b := NewBuilder(2 * k)
	for blob := 0; blob < 2; blob++ {
		base := int32(blob * k)
		for i := int32(0); i < int32(k); i++ {
			for j := i + 1; j < int32(k); j++ {
				b.AddEdge(base+i, base+j, 1)
			}
		}
	}
	b.AddEdge(0, int32(k), 1)
	b.AddEdge(1, int32(k)+1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSnapshotQueriesMatchFreeFunctions(t *testing.T) {
	g := twoCliques(t, 5)
	s := NewSnapshot(g, SnapshotOptions{})
	ctx := context.Background()

	cut, err := s.MinCut(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := Solve(g, Options{})
	if cut.Value != want.Value || cut.Value != 2 {
		t.Fatalf("snapshot λ=%d, Solve λ=%d, want 2", cut.Value, want.Value)
	}
	if got := s.CutValue(cut.Side); got != cut.Value {
		t.Fatalf("witness evaluates to %d, want %d", got, cut.Value)
	}

	ac, err := s.AllMinCuts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ac.Lambda != 2 || ac.Count != 1 {
		t.Fatalf("all-cuts λ=%d count=%d, want λ=2 count=1", ac.Lambda, ac.Count)
	}

	v, side, err := s.STMinCut(ctx, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || s.CutValue(side) != 2 {
		t.Fatalf("s-t cut value %d (side evaluates to %d), want 2", v, s.CutValue(side))
	}

	st := s.Stats()
	if st.Vertices != 10 || st.Components != 1 || st.MinDegree != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSnapshotSTMinCutBadTerminals checks that terminals outside the
// graph or equal to each other come back as errors, not panics.
func TestSnapshotSTMinCutBadTerminals(t *testing.T) {
	g := twoCliques(t, 5)
	n := int32(g.NumVertices())
	s := NewSnapshot(g, SnapshotOptions{})
	for _, st := range [][2]int32{{0, n}, {-1, 0}, {2, 2}} {
		if v, side, err := s.STMinCut(context.Background(), st[0], st[1]); err == nil {
			t.Errorf("STMinCut(%d, %d) = %d, %v; want an error", st[0], st[1], v, side)
		}
	}
}

// TestApplyReusesCertificates is the acceptance test for the epoch/
// invalidation design: a non-crossing deletion and a non-crossing
// insertion must carry both λ and the cactus into the new epoch without
// recomputation, while a crossing deletion must invalidate everything
// and recompute the correct new λ lazily.
func TestApplyReusesCertificates(t *testing.T) {
	ctx := context.Background()
	fresh := func() *Snapshot {
		s := NewSnapshot(twoCliques(t, 5), SnapshotOptions{})
		if _, err := s.MinCut(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AllMinCuts(ctx); err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("non-crossing delete preserves family", func(t *testing.T) {
		s := fresh()
		// (2,3) is inside the first K5: no minimum cut separates them and
		// λ(2,3)=4 ≥ λ+w+1=4, so certification proves the whole family
		// survives.
		ns, r, err := s.Apply(ctx, []Mutation{DeleteEdge(2, 3)})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Lambda || !r.Cactus {
			t.Fatalf("reused = %+v, want λ and cactus both carried", r)
		}
		if r.CertifyCalls != 1 {
			t.Fatalf("certify calls = %d, want 1", r.CertifyCalls)
		}
		if ns.Epoch() != 1 {
			t.Fatalf("epoch = %d, want 1", ns.Epoch())
		}
		if _, ok := ns.LambdaCached(); !ok {
			t.Fatal("λ not cached on new epoch")
		}
		if _, ok := ns.CactusCached(); !ok {
			t.Fatal("cactus not cached on new epoch")
		}
		// The carried certificates must be right for the mutated graph.
		cut, _ := ns.MinCut(ctx)
		if cut.Value != 2 || ns.CutValue(cut.Side) != 2 {
			t.Fatalf("carried λ=%d witness=%d, want 2", cut.Value, ns.CutValue(cut.Side))
		}
		if want := Solve(ns.Graph(), Options{}); want.Value != cut.Value {
			t.Fatalf("fresh solve on mutated graph: %d, carried: %d", want.Value, cut.Value)
		}
	})

	t.Run("non-crossing insert preserves family", func(t *testing.T) {
		s := fresh()
		// Reinforce an edge inside the first K5: no minimum cut crosses it.
		ns, r, err := s.Apply(ctx, []Mutation{InsertEdge(2, 4, 3)})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Lambda || !r.Cactus {
			t.Fatalf("reused = %+v, want λ and cactus both carried", r)
		}
		if r.CertifyCalls != 0 {
			t.Fatalf("insert ran %d certification probes, want 0", r.CertifyCalls)
		}
		ac, ok := ns.CactusCached()
		if !ok || ac.Lambda != 2 || ac.Count != 1 {
			t.Fatalf("carried cactus λ=%d count=%d ok=%v", ac.Lambda, ac.Count, ok)
		}
	})

	t.Run("crossing delete carries lambda minus w", func(t *testing.T) {
		s := fresh()
		// (0,5) is a bridge: the unique minimum cut crosses it, so the
		// λ−w rule carries λ=2−1=1 with the crossing witness instead of
		// recomputing; the cactus is dropped.
		ns, r, err := s.Apply(ctx, []Mutation{DeleteEdge(0, 5)})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Lambda || r.Cactus {
			t.Fatalf("reused = %+v, want λ carried (λ−w rule) and cactus dropped", r)
		}
		if r.DeleteReuses != 1 {
			t.Fatalf("delete reuses = %d, want 1", r.DeleteReuses)
		}
		if r.CertifyCalls != 0 {
			t.Fatalf("certify calls = %d, want 0 (the λ−w rule needs no probe)", r.CertifyCalls)
		}
		cut, ok := ns.LambdaCached()
		if !ok {
			t.Fatal("λ−w not cached on new epoch")
		}
		if cut.Value != 1 || !cut.Exact {
			t.Fatalf("carried λ=%d exact=%v, want 1 exact (single remaining bridge)", cut.Value, cut.Exact)
		}
		if got := ns.CutValue(cut.Side); got != 1 {
			t.Fatalf("carried witness evaluates to %d, want 1", got)
		}
		if want := Solve(ns.Graph(), Options{}); want.Value != cut.Value {
			t.Fatalf("fresh solve %d disagrees with carried λ−w=%d", want.Value, cut.Value)
		}
	})

	t.Run("crossing delete to disconnection carries lambda zero", func(t *testing.T) {
		// Two triangles joined by one weight-3 edge: λ=3, the unique
		// minimum cut is the joining edge; deleting it carries λ−w=0 and
		// the witness of the now-disconnected graph.
		b := NewBuilder(6)
		for _, blob := range [][3]int32{{0, 1, 2}, {3, 4, 5}} {
			b.AddEdge(blob[0], blob[1], 3)
			b.AddEdge(blob[1], blob[2], 3)
			b.AddEdge(blob[2], blob[0], 3)
		}
		b.AddEdge(2, 3, 3)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := NewSnapshot(g, SnapshotOptions{})
		if _, err := s.MinCut(ctx); err != nil {
			t.Fatal(err)
		}
		ns, r, err := s.Apply(ctx, []Mutation{DeleteEdge(2, 3)})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Lambda || r.DeleteReuses != 1 {
			t.Fatalf("reused = %+v, want λ−w carry", r)
		}
		cut, ok := ns.LambdaCached()
		if !ok || cut.Value != 0 || ns.CutValue(cut.Side) != 0 {
			t.Fatalf("carried λ=%d (ok=%v), want 0 for the disconnected graph", cut.Value, ok)
		}
	})

	t.Run("crossing insert with non-separating cut keeps lambda", func(t *testing.T) {
		// C4 has four cactus nodes and six minimum cuts; inserting the
		// chord (0,2) crosses some of them, but the cut isolating vertex 1
		// keeps 0 and 2 together, so λ=2 survives with that witness.
		b := NewBuilder(4)
		b.AddEdge(0, 1, 1)
		b.AddEdge(1, 2, 1)
		b.AddEdge(2, 3, 1)
		b.AddEdge(3, 0, 1)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := NewSnapshot(g, SnapshotOptions{})
		if _, err := s.AllMinCuts(ctx); err != nil {
			t.Fatal(err)
		}
		ns, r, err := s.Apply(ctx, []Mutation{InsertEdge(0, 2, 5)})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Lambda || r.Cactus {
			t.Fatalf("reused = %+v, want λ carried and cactus dropped", r)
		}
		cut, _ := ns.MinCut(ctx)
		if cut.Value != 2 || ns.CutValue(cut.Side) != 2 {
			t.Fatalf("carried λ=%d witness=%d, want 2", cut.Value, ns.CutValue(cut.Side))
		}
	})

	t.Run("batch coalesces after invalidation", func(t *testing.T) {
		s := fresh()
		ns, r, err := s.Apply(ctx, []Mutation{
			InsertEdge(2, 7, 1), // the unique minimum cut separates 2 and 7: drops both certificates
			DeleteEdge(2, 3),    // now batched
			InsertEdge(6, 8, 2), // batched with the delete above
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Lambda || r.Cactus {
			t.Fatalf("reused = %+v, want nothing", r)
		}
		if r.Rebuilds != 2 {
			t.Fatalf("rebuilds = %d, want 2 (one live, one coalesced)", r.Rebuilds)
		}
		cut, err := ns.MinCut(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := Solve(ns.Graph(), Options{}); want.Value != cut.Value {
			t.Fatalf("λ after batch: %d, fresh solve: %d", cut.Value, want.Value)
		}
	})

	t.Run("delete of missing edge fails", func(t *testing.T) {
		s := fresh()
		_, _, err := s.Apply(ctx, []Mutation{DeleteEdge(0, 9)})
		if err == nil {
			t.Fatal("no error deleting a nonexistent edge")
		}
		if errors.Is(err, ErrInvalidMutation) {
			t.Fatalf("missing edge reported as ErrInvalidMutation: %v", err)
		}
	})
}

// TestApplyMissingEdgeSameErrorColdAndWarm: deleting an edge that does
// not exist at its position in the batch fails with the same indexed
// error whether the snapshot holds certificates (deletes are checked one
// at a time) or not (deletes are queued for a batched rebuild).
func TestApplyMissingEdgeSameErrorColdAndWarm(t *testing.T) {
	ctx := context.Background()
	ring4 := ringGraph(t, 4) // edges 0-1, 1-2, 2-3, 3-0
	cases := []struct {
		name  string
		batch []Mutation
		want  string
	}{
		{"lone missing edge", []Mutation{DeleteEdge(0, 2)},
			"mincut: mutation 0 deletes nonexistent edge (0,2)"},
		{"missing edge first", []Mutation{DeleteEdge(0, 2), InsertEdge(0, 2, 1), DeleteEdge(1, 2)},
			"mincut: mutation 0 deletes nonexistent edge (0,2)"},
		{"missing edge after an insert", []Mutation{InsertEdge(0, 2, 1), DeleteEdge(1, 3)},
			"mincut: mutation 1 deletes nonexistent edge (1,3)"},
		{"same edge deleted twice", []Mutation{DeleteEdge(0, 1), DeleteEdge(0, 1)},
			"mincut: mutation 1 deletes nonexistent edge (0,1)"},
		{"same edge deleted twice, reversed", []Mutation{DeleteEdge(2, 3), DeleteEdge(3, 2)},
			"mincut: mutation 1 deletes nonexistent edge (3,2)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cold := NewSnapshot(ring4, SnapshotOptions{})
			warm := NewSnapshot(ring4, SnapshotOptions{})
			if _, err := warm.AllMinCuts(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := warm.MinCut(ctx); err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]*Snapshot{"cold": cold, "warm": warm} {
				ns, _, err := s.Apply(ctx, tc.batch)
				if err == nil || ns != nil {
					t.Fatalf("%s: Apply succeeded, want %q", name, tc.want)
				}
				if err.Error() != tc.want {
					t.Errorf("%s: error %q, want %q", name, err, tc.want)
				}
				if errors.Is(err, ErrInvalidMutation) {
					t.Errorf("%s: missing edge reported as ErrInvalidMutation: %v", name, err)
				}
			}
		})
	}
}

// TestApplyRejectsTotalWeightOverflow: inserts that push the total edge
// weight past math.MaxInt64 fail, cold or warm, and leave the receiver
// untouched. Every degree of the resulting path 0–1–2–3 (weights 2⁶³−2,
// 1, 2⁶³−2) would fit in int64, but its cut {1,2} would not: before the
// total was checked, Apply succeeded and MinCut returned λ = −4.
func TestApplyRejectsTotalWeightOverflow(t *testing.T) {
	ctx := context.Background()
	path, err := FromEdges(4, []Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}, {U: 2, V: 3, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Mutation{InsertEdge(0, 1, math.MaxInt64-2), InsertEdge(2, 3, math.MaxInt64-2)}
	for _, warm := range []bool{false, true} {
		s := NewSnapshot(path, SnapshotOptions{})
		if warm {
			if _, err := s.AllMinCuts(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := s.MinCut(ctx); err != nil {
				t.Fatal(err)
			}
		}
		ns, r, err := s.Apply(ctx, batch)
		if err == nil || ns != nil || r != (Reused{}) {
			t.Fatalf("warm=%v: Apply = (%v, %+v, %v), want an overflow error", warm, ns, r, err)
		}
		if s.Epoch() != 0 || s.Graph() != path || s.Stats().TotalWeight != 3 {
			t.Fatalf("warm=%v: receiver changed: epoch %d, total weight %d", warm, s.Epoch(), s.Stats().TotalWeight)
		}
		cut, err := s.MinCut(ctx)
		if err != nil || cut.Value != 1 {
			t.Fatalf("warm=%v: MinCut after the rejected batch: λ=%d err=%v", warm, cut.Value, err)
		}
		all, err := s.AllMinCuts(ctx)
		if err != nil || all.Lambda != 1 || all.Count != 3 {
			t.Fatalf("warm=%v: AllMinCuts after the rejected batch: %+v err=%v", warm, all, err)
		}
	}
}

// TestApplyAgainstFreshSolve cross-validates the invalidation rules on a
// mutation walk: after every Apply the (possibly carried) λ must equal a
// from-scratch solve, and a carried witness must evaluate to λ.
func TestApplyAgainstFreshSolve(t *testing.T) {
	ctx := context.Background()
	s := NewSnapshot(twoCliques(t, 5), SnapshotOptions{})
	if _, err := s.AllMinCuts(ctx); err != nil {
		t.Fatal(err)
	}
	walk := [][]Mutation{
		{InsertEdge(2, 3, 1)},
		{DeleteEdge(0, 1)},
		{InsertEdge(0, 6, 1)}, // third bridge: crossing insert
		{DeleteEdge(0, 6)},    // crossing delete
		{DeleteEdge(5, 6), DeleteEdge(5, 7)},
		{InsertEdge(5, 6, 2), InsertEdge(5, 7, 1)},
	}
	for step, batch := range walk {
		ns, _, err := s.Apply(ctx, batch)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		cut, err := ns.MinCut(ctx)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want := Solve(ns.Graph(), Options{Seed: uint64(step) + 7})
		if cut.Value != want.Value {
			t.Fatalf("step %d: λ=%d, fresh solve %d", step, cut.Value, want.Value)
		}
		if cut.Side != nil && ns.CutValue(cut.Side) != cut.Value {
			t.Fatalf("step %d: witness evaluates to %d, want %d", step, ns.CutValue(cut.Side), cut.Value)
		}
		s = ns
	}
}

// TestSnapshotEpochSwapRace is the -race acceptance test: many
// goroutines query one shared snapshot pointer while a writer keeps
// applying mutations and swapping epochs.
func TestSnapshotEpochSwapRace(t *testing.T) {
	ctx := context.Background()
	var cur atomic.Pointer[Snapshot]
	cur.Store(NewSnapshot(twoCliques(t, 5), SnapshotOptions{}))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)

	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				s := cur.Load()
				switch n % 4 {
				case 0:
					if _, err := s.MinCut(ctx); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := s.AllMinCuts(ctx); err != nil {
						errs <- err
						return
					}
				case 2:
					s.Stats()
				case 3:
					if _, _, err := s.STMinCut(ctx, 0, 7); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}

	// Writer: alternately delete and re-insert one inner edge, swapping
	// the published snapshot each time.
	for flip := 0; flip < 30; flip++ {
		var m Mutation
		if flip%2 == 0 {
			m = DeleteEdge(2, 3)
		} else {
			m = InsertEdge(2, 3, 1)
		}
		ns, _, err := cur.Load().Apply(ctx, []Mutation{m})
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(ns)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if e := cur.Load().Epoch(); e != 30 {
		t.Fatalf("final epoch %d, want 30", e)
	}
}

// TestSnapshotCancellationDoesNotPoison checks the single-flight cell's
// abort contract: a cancelled AllMinCuts returns an error, and a
// follow-up call with a live context computes the full result.
func TestSnapshotCancellationDoesNotPoison(t *testing.T) {
	s := NewSnapshot(twoCliques(t, 8), SnapshotOptions{})

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.AllMinCuts(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}
	if _, ok := s.CactusCached(); ok {
		t.Fatal("aborted computation was cached")
	}
	if _, err := s.MinCut(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MinCut returned %v, want context.Canceled", err)
	}

	// A waiter whose own context dies while another caller computes must
	// abort without disturbing the computation.
	slowCtx, slowCancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer slowCancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.AllMinCuts(context.Background())
		done <- err
	}()
	_, werr := s.AllMinCuts(slowCtx)
	if err := <-done; err != nil {
		t.Fatalf("healthy caller failed: %v", err)
	}
	_ = werr // may be nil (fast compute) or DeadlineExceeded (slow); both fine
	if ac, ok := s.CactusCached(); !ok || ac.Lambda != 2 {
		t.Fatal("result not cached after successful computation")
	}
}

// TestApplyRejectsInvalidBatch is the regression test for the
// validation-order panic: with a warm certificate cache, Apply used to
// index the witness array (and the cactus vertex map) by the raw
// mutation endpoints before any bounds check, so an out-of-range id
// panicked instead of returning an error. The whole batch must now be
// rejected up front with ErrInvalidMutation, leaving the receiver
// untouched.
func TestApplyRejectsInvalidBatch(t *testing.T) {
	ctx := context.Background()
	s := NewSnapshot(twoCliques(t, 5), SnapshotOptions{})
	// Warm BOTH caches: the panic required a cached certificate.
	if _, err := s.MinCut(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllMinCuts(ctx); err != nil {
		t.Fatal(err)
	}

	bad := map[string][]Mutation{
		"negative u insert":     {InsertEdge(-1, 3, 1)},
		"negative v delete":     {DeleteEdge(3, -7)},
		"u past n insert":       {InsertEdge(10, 3, 1)},
		"v past n delete":       {DeleteEdge(0, 10)},
		"huge id delete":        {DeleteEdge(0, 1<<30)},
		"zero weight insert":    {InsertEdge(0, 1, 0)},
		"negative weight":       {InsertEdge(0, 1, -5)},
		"self loop delete":      {DeleteEdge(4, 4)},
		"unknown op":            {{Op: MutationOp(99), U: 0, V: 1}},
		"valid then invalid":    {DeleteEdge(2, 3), InsertEdge(0, 99, 1)},
		"invalid after crosser": {DeleteEdge(0, 5), DeleteEdge(-2, 1)},
	}
	for name, batch := range bad {
		t.Run(name, func(t *testing.T) {
			ns, r, err := s.Apply(ctx, batch)
			if err == nil {
				t.Fatalf("Apply(%v) succeeded, want ErrInvalidMutation", batch)
			}
			if !errors.Is(err, ErrInvalidMutation) {
				t.Fatalf("Apply(%v) = %v, want ErrInvalidMutation", batch, err)
			}
			if ns != nil || r != (Reused{}) {
				t.Fatalf("rejected batch produced a snapshot (%v) or a report (%+v)", ns, r)
			}
		})
	}

	// The receiver must still answer correctly after every rejection.
	cut, err := s.MinCut(ctx)
	if err != nil || cut.Value != 2 {
		t.Fatalf("receiver damaged by rejected batches: λ=%d err=%v", cut.Value, err)
	}
	if s.Epoch() != 0 {
		t.Fatalf("receiver epoch moved to %d", s.Epoch())
	}
}

// TestDeleteReuseDifferential drives random mutation sequences and
// cross-checks the λ−w deletion-reuse rule (and every other carry)
// against a from-scratch solve after every step: a carried λ must equal
// the fresh λ, and a carried witness must evaluate to it on the mutated
// graph. The workload is tuned so crossing deletes — the λ−w case —
// actually occur.
func TestDeleteReuseDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	const n = 12

	totalDeleteReuses := 0
	for trial := 0; trial < 6; trial++ {
		// Random connected-ish weighted graph: a cycle backbone plus
		// random chords, weights 1..4 so λ−w can hit zero.
		b := NewBuilder(n)
		type pair struct{ u, v int32 }
		edges := map[pair]int64{}
		addEdge := func(u, v int32, w int64) {
			if u > v {
				u, v = v, u
			}
			edges[pair{u, v}] += w
		}
		for i := int32(0); i < n; i++ {
			addEdge(i, (i+1)%n, int64(1+rng.Intn(4)))
		}
		for k := 0; k < 10; k++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				addEdge(u, v, int64(1+rng.Intn(4)))
			}
		}
		for e, w := range edges {
			b.AddEdge(e.u, e.v, w)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := NewSnapshot(g, SnapshotOptions{})
		if _, err := s.AllMinCuts(ctx); err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 30; step++ {
			var m Mutation
			if rng.Intn(2) == 0 && len(edges) > 1 {
				// Delete a random existing edge.
				ks := make([]pair, 0, len(edges))
				for e := range edges {
					ks = append(ks, e)
				}
				sort.Slice(ks, func(i, j int) bool {
					return ks[i].u < ks[j].u || (ks[i].u == ks[j].u && ks[i].v < ks[j].v)
				})
				e := ks[rng.Intn(len(ks))]
				m = DeleteEdge(e.u, e.v)
				delete(edges, e)
			} else {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if u == v {
					continue
				}
				w := int64(1 + rng.Intn(3))
				m = InsertEdge(u, v, w)
				addEdge(u, v, w)
			}
			ns, r, err := s.Apply(ctx, []Mutation{m})
			if err != nil {
				t.Fatalf("trial %d step %d %s(%d,%d): %v", trial, step, m.Op, m.U, m.V, err)
			}
			totalDeleteReuses += r.DeleteReuses
			if r.DeleteReuses > 0 && !r.Lambda {
				t.Fatalf("trial %d step %d: DeleteReuses=%d but Lambda not carried", trial, step, r.DeleteReuses)
			}
			want := Solve(ns.Graph(), Options{Seed: uint64(trial*100+step) + 3})
			if cut, ok := ns.LambdaCached(); ok {
				if cut.Value != want.Value {
					t.Fatalf("trial %d step %d after %s(%d,%d): carried λ=%d (reused=%+v), fresh solve %d",
						trial, step, m.Op, m.U, m.V, cut.Value, r, want.Value)
				}
				if cut.Side != nil && ns.CutValue(cut.Side) != cut.Value {
					t.Fatalf("trial %d step %d: carried witness evaluates to %d, want %d",
						trial, step, ns.CutValue(cut.Side), cut.Value)
				}
			}
			// Re-warm so the next step has certificates to carry; every
			// few steps rebuild the cactus for the precise crossing test.
			if _, err := ns.MinCut(ctx); err != nil {
				t.Fatal(err)
			}
			if step%5 == 4 {
				if _, err := ns.AllMinCuts(ctx); err != nil {
					t.Fatal(err)
				}
			}
			s = ns
		}
	}
	if totalDeleteReuses == 0 {
		t.Fatal("workload never exercised the λ−w deletion-reuse rule")
	}
}
