package mincut

// Differential property tests: the exact solvers must agree with each
// other on random graphs drawn from several generators, and the
// all-minimum-cuts subsystem must agree with the brute-force oracle. This
// file is the repo-wide harness the per-package suites plug into; see also
// internal/cactus/differential_test.go for the oracle comparison on
// hundreds of small graphs.

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// exactTrio runs ParCut, NOI and Stoer–Wagner on g and fails the test on
// any disagreement or invalid witness.
func exactTrio(t *testing.T, g *Graph, seed uint64, label string) {
	t.Helper()
	par := Solve(g, Options{Algorithm: AlgoParallel, Seed: seed})
	noi := Solve(g, Options{Algorithm: AlgoNOI, Seed: seed})
	sw := Solve(g, Options{Algorithm: AlgoStoerWagner, Seed: seed})
	if par.Value != noi.Value || noi.Value != sw.Value {
		t.Fatalf("%s: ParCut=%d NOI=%d StoerWagner=%d", label, par.Value, noi.Value, sw.Value)
	}
	for _, cut := range []Cut{par, noi, sw} {
		if cut.Side == nil {
			continue
		}
		if got := CutValue(g, cut.Side); got != cut.Value {
			t.Fatalf("%s: %s witness evaluates to %d, reported %d", label, cut.Algorithm, got, cut.Value)
		}
	}
}

func TestExactSolversAgreeRandom(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		n := 8 + int(seed%20)
		m := n + int(seed*3%uint64(3*n))
		g := gen.GNM(n, m, seed*101)
		exactTrio(t, g, seed, "GNM")

		g = gen.GNMWeighted(n, m, 8, seed*103)
		exactTrio(t, g, seed, "GNMWeighted")

		g = gen.ConnectedGNM(n, m, seed*107)
		exactTrio(t, g, seed, "ConnectedGNM")
	}
}

func TestExactSolversAgreeStructured(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g, _ := gen.PlantedCut(8, 9, 20, 3, seed*11)
		exactTrio(t, g, seed, "PlantedCut")

		g = gen.WattsStrogatz(24, 4, 0.2, seed*13)
		exactTrio(t, g, seed, "WattsStrogatz")

		g = gen.BarabasiAlbert(40, 3, seed*17)
		exactTrio(t, g, seed, "BarabasiAlbert")
	}
}

func TestExactSolversMatchOracle(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		n := 5 + int(seed%8)
		g := gen.GNMWeighted(n, n+int(seed%uint64(n)), 5, seed*211)
		want, _ := verify.BruteForceMinCut(g)
		for _, algo := range []Algorithm{AlgoParallel, AlgoNOI, AlgoNOIUnbounded, AlgoHaoOrlin, AlgoStoerWagner} {
			cut := Solve(g, Options{Algorithm: algo, Seed: seed})
			if cut.Value != want {
				t.Fatalf("seed %d: %s = %d, oracle %d", seed, algo, cut.Value, want)
			}
		}
	}

	// Chains: the series reduction folds them in ParCut and NOI, and the
	// cut between a chain's two lightest edges is often the minimum.
	instances := 600
	if testing.Short() {
		instances = 150
	}
	for seed := uint64(1); seed <= uint64(instances); seed++ {
		g := chainGraph(gen.NewRNG(seed * 7919))
		want, _ := verify.BruteForceMinCut(g)
		for _, algo := range []Algorithm{AlgoParallel, AlgoNOI, AlgoNOIUnbounded} {
			for _, workers := range []int{1, 2, 4} {
				cut := Solve(g, Options{Algorithm: algo, Workers: workers, Seed: seed})
				if cut.Value != want {
					t.Fatalf("chains seed %d (%v): %s at %d workers = %d, oracle %d",
						seed, g.Edges(), algo, workers, cut.Value, want)
				}
				if got := CutValue(g, cut.Side); got != want {
					t.Fatalf("chains seed %d (%v): %s at %d workers: witness evaluates to %d, want %d",
						seed, g.Edges(), algo, workers, got, want)
				}
			}
		}
	}
}

// chainGraph draws a connected weighted graph on at most 15 vertices
// whose edges are subdivided into chains of 0–3 inner vertices: a random
// tree plus a few extra chains over 2–6 hubs, so that parallel chains
// form theta graphs and a chain from a hub to itself hangs a cycle off
// it. One draw in eight is instead a plain weighted cycle or path.
func chainGraph(rng *gen.RNG) *Graph {
	const maxN = 15
	weight := func() int64 { return 1 + rng.Int63n(6) }
	var edges []Edge
	if rng.Intn(8) == 0 {
		n := 3 + rng.Intn(maxN-2)
		for v := 1; v < n; v++ {
			edges = append(edges, Edge{U: int32(v - 1), V: int32(v), Weight: weight()})
		}
		if rng.Intn(2) == 0 {
			edges = append(edges, Edge{U: int32(n - 1), V: 0, Weight: weight()})
		}
		return graph.MustFromEdges(n, edges)
	}
	hubs := 2 + rng.Intn(5)
	n := hubs
	chain := func(a, b int32) {
		k := min(rng.Intn(4), maxN-n)
		if a == b && k < 2 {
			return
		}
		prev := a
		for i := 0; i < k; i++ {
			edges = append(edges, Edge{U: prev, V: int32(n), Weight: weight()})
			prev = int32(n)
			n++
		}
		edges = append(edges, Edge{U: prev, V: b, Weight: weight()})
	}
	for v := 1; v < hubs; v++ {
		chain(int32(rng.Intn(v)), int32(v))
	}
	for i := rng.Intn(hubs + 2); i > 0; i-- {
		chain(int32(rng.Intn(hubs)), int32(rng.Intn(hubs)))
	}
	return graph.MustFromEdges(n, edges)
}
