package datasets

import (
	"context"
	"os"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/noi"
	"repro/internal/pq"
	"repro/internal/verify"
)

// The real-instance suite: every dataset loads, matches its catalogued
// size, and all solvers agree on its minimum cut — table-driven in the
// style of LAGraph's dataset test suites.
func TestDatasetSuite(t *testing.T) {
	for _, d := range Vendored() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			g, err := d.Load()
			if err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() != d.N {
				t.Fatalf("n = %d, want %d", g.NumVertices(), d.N)
			}
			if g.NumEdges() != d.M {
				t.Fatalf("m = %d, want %d", g.NumEdges(), d.M)
			}
			if !g.IsConnected() {
				t.Fatalf("%s is disconnected", d.Name)
			}

			sw, swSide := baseline.StoerWagner(g)
			res := noi.MinimumCut(g, noi.Options{Queue: pq.KindBStack, Bounded: true, Seed: 7})
			par, _ := core.ParallelMinimumCut(context.Background(), g, core.Options{Queue: pq.KindBQueue, Bounded: true, Seed: 7})
			if sw != res.Value || sw != par.Value {
				t.Fatalf("solvers disagree: StoerWagner %d, NOI %d, ParCut %d", sw, res.Value, par.Value)
			}
			if sw != d.Lambda {
				t.Fatalf("lambda = %d, want %d", sw, d.Lambda)
			}
			for name, side := range map[string][]bool{
				"StoerWagner": swSide, "NOI": res.Side, "ParCut": par.Side,
			} {
				if err := verify.ValidateWitness(g, side, sw); err != nil {
					t.Fatalf("%s witness: %v", name, err)
				}
			}
		})
	}
}

// Path must resolve vendored instances without any environment setup.
func TestVendoredPaths(t *testing.T) {
	for _, d := range Vendored() {
		if _, err := os.Stat(d.Path()); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
}
