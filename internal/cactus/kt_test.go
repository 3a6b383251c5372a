package cactus

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestKTUnitCycleScales is the acceptance case for the KT construction:
// the unit n-cycle has Θ(n²) minimum cuts (every pair of edges), the
// worst case a cactus exists to compress, and the kernelization cannot
// contract anything. KT must build the n = 64 cactus well under a
// second; the quadratic reference is run gated by a size cap, the
// configuration that keeps it usable on cut-heavy inputs.
func TestKTUnitCycleScales(t *testing.T) {
	for _, n := range []int{32, 64} {
		g := gen.Ring(n)
		start := time.Now()
		res := mustAll(t, g, Options{})
		elapsed := time.Since(start)
		want := n * (n - 1) / 2
		if res.Lambda != 2 || res.Count != want {
			t.Fatalf("C_%d: λ=%d cuts=%d, want 2 and %d", n, res.Lambda, res.Count, want)
		}
		c := res.Cactus
		if c.NumCycles != 1 || c.NumNodes != n || c.NumTreeEdges() != 0 {
			t.Fatalf("C_%d cactus %v, want one %d-cycle", n, c, n)
		}
		if err := c.Validate(g); err != nil {
			t.Fatalf("C_%d cactus invalid: %v", n, err)
		}
		// The build runs in ~20ms; the 1s acceptance bound leaves ~45×
		// headroom for scheduling noise. Skipped under -short (the
		// race-detector CI job), where instrumentation skews timing.
		if n == 64 && !testing.Short() && elapsed > time.Second {
			t.Fatalf("C_64 KT build took %v, want < 1s", elapsed)
		}
		t.Logf("C_%d: %d cuts via KT in %v", n, res.Count, elapsed)
	}

	// The quadratic reference under a size cap must refuse rather than
	// churn through the Θ(n²) cut family.
	_, err := allMinCuts(context.Background(), gen.Ring(64), Options{MaxCuts: 500}, enumerateQuadratic)
	if !errors.Is(err, ErrTooManyCuts) {
		t.Fatalf("capped quadratic build on C_64: got %v, want ErrTooManyCuts", err)
	}
	// The cap is enumerator-independent: KT under the same cap also refuses.
	_, err = AllMinCuts(context.Background(), gen.Ring(64), Options{MaxCuts: 500})
	if !errors.Is(err, ErrTooManyCuts) {
		t.Fatalf("capped KT build on C_64: got %v, want ErrTooManyCuts", err)
	}
}

// TestKTNoMaterialize checks the streaming contract: Cuts stays nil,
// Count and the cactus are still exact, and the encoded cut set matches
// the materialized run.
func TestKTNoMaterialize(t *testing.T) {
	g := gen.Ring(20)
	slim := mustAll(t, g, Options{NoMaterialize: true})
	full := mustAll(t, g, Options{})
	if slim.Cuts != nil {
		t.Fatalf("NoMaterialize left %d materialized cuts", len(slim.Cuts))
	}
	if slim.Count != 190 || full.Count != 190 {
		t.Fatalf("counts %d / %d, want 190", slim.Count, full.Count)
	}
	if got := slim.Cactus.CountCuts(); got != 190 {
		t.Fatalf("streamed cactus encodes %d cuts, want 190", got)
	}
	if err := slim.Cactus.Validate(g); err != nil {
		t.Fatalf("streamed cactus invalid: %v", err)
	}
	// Same cactus regardless of materialization.
	if slim.Cactus.NumNodes != full.Cactus.NumNodes || slim.Cactus.NumCycles != full.Cactus.NumCycles {
		t.Fatalf("cactus differs across materialization: %v vs %v", slim.Cactus, full.Cactus)
	}
}

// TestKTSuppliedLambda exercises the trusted-λ path of the KT recursion
// (the λ solve is skipped; every step must still find value exactly λ).
func TestKTSuppliedLambda(t *testing.T) {
	g := gen.Ring(12)
	res := mustAll(t, g, Options{Lambda: 2})
	if res.Count != 66 {
		t.Fatalf("C_12 with supplied λ: %d cuts, want 66", res.Count)
	}
	// A too-large λ is not a minimum-cut family; the KT step detects the
	// inconsistency instead of returning garbage.
	if _, err := AllMinCuts(context.Background(), g, Options{Lambda: 3}); err == nil {
		t.Fatal("λ=3 on C_12 must fail, got nil error")
	}
}

// TestKTTooSmallLambda pins the other wrong-λ direction: a supplied λ
// below the minimum finds no cut, and may first contract the whole
// kernel into one vertex, which leaves the enumeration no step to run.
func TestKTTooSmallLambda(t *testing.T) {
	res := mustAll(t, gen.Ring(6), Options{Lambda: 1})
	if res.Count != 0 || res.Cactus.NumNodes != 1 {
		t.Fatalf("C_6 with supplied λ=1: %d cuts, %v; want none and one node", res.Count, res.Cactus)
	}
}

// TestAllMinCutsAllocs is the allocation regression test of the chain
// merge. On the unit 512-ring (130 816 cuts) the former assembly
// allocated 93.1 MiB in 410 241 mallocs: one bitset per cut, their
// bit-matrix transposes, and ChainCuts' per-step buffers. Recording the
// chains as parts and merging them must stay under a tenth of both; a
// return of any of those per-cut or per-step allocations trips it.
func TestAllMinCutsAllocs(t *testing.T) {
	g := gen.Ring(512)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := mustAll(t, g, Options{Workers: 1, NoMaterialize: true})
	runtime.ReadMemStats(&after)
	if res.Count != 512*511/2 {
		t.Fatalf("C_512: %d cuts, want %d", res.Count, 512*511/2)
	}
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("C_512 AllMinCuts: %.2f MiB in %d mallocs", float64(bytes)/(1<<20), mallocs)
	const maxBytes, maxMallocs = 9_762_242, 41_024 // a tenth of 93.1 MiB and of 410 241
	if bytes > maxBytes || mallocs > maxMallocs {
		t.Fatalf("C_512 AllMinCuts allocated %d bytes in %d mallocs, want at most %d and %d",
			bytes, mallocs, maxBytes, maxMallocs)
	}
}
