package mincut

// Known-answer witnesses: every solver's λ and witness side at one
// worker and a fixed seed on a fixed set of inputs. The rows are the same
// across runs and GOMAXPROCS, so a changed row means a solver's
// behaviour changed, not noise.

import (
	"hash/fnv"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
)

// witnessGraphs builds the table's inputs by name: the vendored corpus,
// a unit ring, the largest component of a small hyperbolic random graph,
// and a disconnected graph whose components interleave vertex ids.
func witnessGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	gs := make(map[string]*Graph)
	for _, d := range datasets.Vendored() {
		g, err := d.Load()
		if err != nil {
			t.Fatal(err)
		}
		gs[d.Name] = g
	}
	gs["ring64"] = gen.Ring(64)
	gs["rhg128"], _ = gen.RHG(1<<7, 8, 5, 3).LargestComponent()
	// Evens form a weighted 5-cycle, odds a K4 with one heavy edge.
	disc, err := FromEdges(9, []Edge{
		{U: 0, V: 2, Weight: 3}, {U: 2, V: 4, Weight: 2}, {U: 4, V: 6, Weight: 3},
		{U: 6, V: 8, Weight: 1}, {U: 8, V: 0, Weight: 2},
		{U: 1, V: 3, Weight: 1}, {U: 1, V: 5, Weight: 4}, {U: 1, V: 7, Weight: 1},
		{U: 3, V: 5, Weight: 1}, {U: 3, V: 7, Weight: 2}, {U: 5, V: 7, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	gs["disconnected"] = disc
	return gs
}

// sideHash is the FNV-64a hash of a witness, one byte (0 or 1) per
// vertex.
func sideHash(side []bool) uint64 {
	h := fnv.New64a()
	buf := make([]byte, len(side))
	for v, in := range side {
		if in {
			buf[v] = 1
		}
	}
	h.Write(buf)
	return h.Sum64()
}

var witnessTable = []struct {
	graph  string
	algo   Algorithm
	lambda int64
	side   uint64
}{
	// karate: n=34 m=78
	{"karate", AlgoParallel, 1, 0x3c2a32335ed894d2},
	{"karate", AlgoNOI, 1, 0x3c2a32335ed894d2},
	{"karate", AlgoNOIUnbounded, 1, 0x3c2a32335ed894d2},
	{"karate", AlgoHaoOrlin, 1, 0xcea1775bcdccebc0},
	{"karate", AlgoStoerWagner, 1, 0x3c2a32335ed894d2},
	{"karate", AlgoKargerStein, 1, 0x3c2a32335ed894d2},
	{"karate", AlgoVieCut, 1, 0x3c2a32335ed894d2},
	{"karate", AlgoMatula, 1, 0x3c2a32335ed894d2},
	// petersen: n=10 m=15
	{"petersen", AlgoParallel, 3, 0x512de6c89da6cd44},
	{"petersen", AlgoNOI, 3, 0x512de6c89da6cd44},
	{"petersen", AlgoNOIUnbounded, 3, 0x512de6c89da6cd44},
	{"petersen", AlgoHaoOrlin, 3, 0x1212495818b53fbc},
	{"petersen", AlgoStoerWagner, 3, 0x4ad840c31607a56c},
	{"petersen", AlgoKargerStein, 3, 0xd668b26e8c5bf97a},
	{"petersen", AlgoVieCut, 3, 0x512de6c89da6cd44},
	{"petersen", AlgoMatula, 3, 0x512de6c89da6cd44},
	// dodecahedral: n=20 m=30
	{"dodecahedral", AlgoParallel, 3, 0x0c593f1b0d139064},
	{"dodecahedral", AlgoNOI, 3, 0x0c593f1b0d139064},
	{"dodecahedral", AlgoNOIUnbounded, 3, 0x0c593f1b0d139064},
	{"dodecahedral", AlgoHaoOrlin, 3, 0x36c33f11a6a9c34a},
	{"dodecahedral", AlgoStoerWagner, 3, 0x9f87e5352235f0f4},
	{"dodecahedral", AlgoKargerStein, 3, 0x9f87e5352235f0f4},
	{"dodecahedral", AlgoVieCut, 3, 0x0c593f1b0d139064},
	{"dodecahedral", AlgoMatula, 3, 0x0c593f1b0d139064},
	// mesh9x9: n=81 m=208
	{"mesh9x9", AlgoParallel, 2, 0x2c52c5fa67372d8c},
	{"mesh9x9", AlgoNOI, 2, 0x2c52c5fa67372d8c},
	{"mesh9x9", AlgoNOIUnbounded, 2, 0x2c52c5fa67372d8c},
	{"mesh9x9", AlgoHaoOrlin, 2, 0xe220a3f3fc705d7f},
	{"mesh9x9", AlgoStoerWagner, 2, 0x2c52c5fa67372d8c},
	{"mesh9x9", AlgoKargerStein, 2, 0x7b71949029ff808c},
	{"mesh9x9", AlgoVieCut, 2, 0x2c52c5fa67372d8c},
	{"mesh9x9", AlgoMatula, 2, 0x2c52c5fa67372d8c},
	// wheel33: n=33 m=64
	{"wheel33", AlgoParallel, 5, 0xc69eee85202926de},
	{"wheel33", AlgoNOI, 5, 0xc69eee85202926de},
	{"wheel33", AlgoNOIUnbounded, 5, 0xc69eee85202926de},
	{"wheel33", AlgoHaoOrlin, 5, 0xf1b55d47250ac8cd},
	{"wheel33", AlgoStoerWagner, 5, 0x7cf98ba3b00a4f1e},
	{"wheel33", AlgoKargerStein, 5, 0x3c0646f176b5129c},
	{"wheel33", AlgoVieCut, 5, 0xc69eee85202926de},
	{"wheel33", AlgoMatula, 5, 0xc69eee85202926de},
	// ring64: n=64 m=64
	{"ring64", AlgoParallel, 2, 0xab165ceafad04724},
	{"ring64", AlgoNOI, 2, 0xab165ceafad04724},
	{"ring64", AlgoNOIUnbounded, 2, 0xab165ceafad04724},
	{"ring64", AlgoHaoOrlin, 2, 0x9cb44a5643804e5e},
	{"ring64", AlgoStoerWagner, 2, 0xb4598c53a406c7a4},
	{"ring64", AlgoKargerStein, 2, 0xac07a262efb7cc7c},
	{"ring64", AlgoVieCut, 2, 0xab165ceafad04724},
	{"ring64", AlgoMatula, 2, 0xab165ceafad04724},
	// rhg128: n=128 m=540
	{"rhg128", AlgoParallel, 2, 0x91dc3108eaa26b24},
	{"rhg128", AlgoNOI, 2, 0x91dc3108eaa26b24},
	{"rhg128", AlgoNOIUnbounded, 2, 0x91dc3108eaa26b24},
	{"rhg128", AlgoHaoOrlin, 2, 0x91dc3108eaa26b24},
	{"rhg128", AlgoStoerWagner, 2, 0x6154f671d7ed0b2c},
	{"rhg128", AlgoKargerStein, 2, 0x6154f671d7ed0b2c},
	{"rhg128", AlgoVieCut, 2, 0x91dc3108eaa26b24},
	{"rhg128", AlgoMatula, 2, 0x91dc3108eaa26b24},
	// disconnected: n=9 m=11
	{"disconnected", AlgoParallel, 0, 0x13e73f3c6961991c},
	{"disconnected", AlgoNOI, 0, 0x13e73f3c6961991c},
	{"disconnected", AlgoNOIUnbounded, 0, 0x13e73f3c6961991c},
	{"disconnected", AlgoHaoOrlin, 0, 0x13e73f3c6961991c},
	{"disconnected", AlgoStoerWagner, 0, 0x13e73f3c6961991c},
	{"disconnected", AlgoKargerStein, 0, 0x13e73f3c6961991c},
	{"disconnected", AlgoVieCut, 0, 0x13e73f3c6961991c},
	{"disconnected", AlgoMatula, 0, 0x13e73f3c6961991c},
}

func TestSolverWitnesses(t *testing.T) {
	gs := witnessGraphs(t)
	for _, row := range witnessTable {
		g, ok := gs[row.graph]
		if !ok {
			t.Fatalf("unknown graph %q", row.graph)
		}
		// Trials applies to Karger–Stein only: its default of log² n
		// trials takes seconds at n = 128.
		cut := Solve(g, Options{Algorithm: row.algo, Workers: 1, Seed: 7, Trials: 2})
		if got := CutValue(g, cut.Side); got != cut.Value {
			t.Errorf("%s/%s: witness evaluates to %d, reported %d", row.graph, row.algo, got, cut.Value)
		}
		if h := sideHash(cut.Side); cut.Value != row.lambda || h != row.side {
			t.Errorf("%s/%s: got λ=%d side=%#016x, want λ=%d side=%#016x",
				row.graph, row.algo, cut.Value, h, row.lambda, row.side)
		}
	}
}
