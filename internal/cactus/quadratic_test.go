package cactus

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
)

// enumerators are the kernel enumerations the tests run the AllMinCuts
// pipeline with: the production KT recursion and the quadratic reference.
var enumerators = []struct {
	name      string
	enumerate enumerator
}{{"KT", ktEnumerate}, {"quadratic", enumerateQuadratic}}

// mustAllWith runs the AllMinCuts pipeline with the given enumerator.
func mustAllWith(t *testing.T, g *graph.Graph, opts Options, enumerate enumerator) *Result {
	t.Helper()
	res, err := allMinCuts(context.Background(), g, opts, enumerate)
	if err != nil {
		t.Fatalf("AllMinCuts: %v", err)
	}
	return res
}

// enumerateQuadratic is the reference enumeration the KT recursion is
// differentially tested against: every minimum cut separates k0 from
// some kernel vertex v and is then a minimum k0-v cut of value λ, so one
// Picard–Queyranne enumeration per target, fanned out over workers, finds
// them all; each cut is found once per far-side vertex and deduplicated
// in a shared canonical-mask set. Cost is one from-scratch max flow per
// kernel vertex plus O(Σ|side|) = O(C·n) rediscoveries. The family is
// assembled by the bit-matrix reference (build_test.go).
func enumerateQuadratic(ctx context.Context, kg *graph.Graph, k0 int32, lambda int64, maxCuts, workers int) (cutFamily, error) {
	nk := kg.NumVertices()
	var (
		mu       sync.Mutex
		cutSet   = map[string]bitset{}
		overflow bool
	)
	collect := func(sSide []bool) bool {
		// Canonical kernel side: the non-k0 side.
		mask := newBitset(nk)
		for v, in := range sSide {
			if !in {
				mask.set(v)
			}
		}
		key := mask.key()
		mu.Lock()
		defer mu.Unlock()
		if _, ok := cutSet[key]; !ok {
			if len(cutSet) >= maxCuts {
				overflow = true
				return false
			}
			cutSet[key] = mask
		}
		return !overflow
	}

	targets := make(chan int32, nk)
	for v := int32(0); v < int32(nk); v++ {
		if v != k0 {
			targets <- v
		}
	}
	close(targets)
	if workers > nk-1 {
		workers = nk - 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range targets {
				if ctx.Err() != nil {
					return // cancellation checked per target (phase boundary)
				}
				mu.Lock()
				done := overflow
				mu.Unlock()
				if done {
					return
				}
				e := flow.NewSTEnum(kg, k0, v)
				if e.Value() == lambda {
					e.Enumerate(collect)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cactus: quadratic enumeration interrupted: %w", err)
	}
	if overflow {
		return nil, fmt.Errorf("cactus: more than %d minimum cuts; raise Options.MaxCuts: %w", maxCuts, ErrTooManyCuts)
	}
	kcuts := make([]bitset, 0, len(cutSet))
	for _, m := range cutSet {
		kcuts = append(kcuts, m)
	}
	return &cutList{nk: nk, k0: k0, cuts: kcuts, workers: workers}, nil
}
