package mincut

// Native Go fuzz targets at the API layer. Arbitrary byte strings are
// decoded into edge lists; graph construction must reject invalid input
// with an error (never a panic), and every solver must return a value its
// own witness re-evaluates to. Run with `go test -fuzz FuzzMinCut`.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/verify"
)

// decodeEdges turns fuzz bytes into an (n, edges) pair. The decoder is
// deliberately permissive: endpoints and weights come straight from the
// input, so out-of-range ids, self loops and non-positive weights all
// reach the API.
func decodeEdges(data []byte) (int, []Edge) {
	if len(data) == 0 {
		return 0, nil
	}
	n := int(data[0]) % 24
	data = data[1:]
	var edges []Edge
	for len(data) >= 4 && len(edges) < 128 {
		u := int32(int8(data[0]))
		v := int32(int8(data[1]))
		w := int64(int16(binary.LittleEndian.Uint16(data[2:4])))
		edges = append(edges, Edge{U: u, V: v, Weight: w})
		data = data[4:]
	}
	return n, edges
}

func FuzzFromEdges(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 0, 1, 2, 1, 0})
	f.Add([]byte{0})
	f.Add([]byte{10, 0, 0, 1, 0, 9, 3, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := decodeEdges(data)
		g, err := FromEdges(n, edges) // must never panic
		if err != nil {
			return
		}
		if g.NumVertices() != n {
			t.Fatalf("built graph has %d vertices, want %d", g.NumVertices(), n)
		}
		// A successfully built graph must round-trip basic invariants.
		var m int
		g.ForEachEdge(func(u, v int32, w int64) {
			if u == v || w <= 0 {
				t.Fatalf("invalid edge (%d,%d,%d) survived construction", u, v, w)
			}
			m++
		})
		if m != g.NumEdges() {
			t.Fatalf("ForEachEdge saw %d edges, NumEdges says %d", m, g.NumEdges())
		}
	})
}

// FuzzReadMatrixMarket feeds arbitrary bytes to the MatrixMarket parser:
// it must reject malformed input with an error (never a panic), and every
// graph it accepts must satisfy the edge invariants and survive a
// write→read round trip. Run with `go test -fuzz FuzzReadMatrixMarket`.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate integer symmetric\n3 3 2\n2 1 5\n3 2 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 -1.5e3\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n1 1 9\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaredMTXDim(data) > 1<<16 {
			return // exercise the parser, not the allocator
		}
		g, err := ReadMatrixMarket(bytes.NewReader(data)) // must never panic
		if err != nil {
			return
		}
		g.ForEachEdge(func(u, v int32, w int64) {
			if u == v || w <= 0 {
				t.Fatalf("invalid edge (%d,%d,%d) survived parsing", u, v, w)
			}
		})
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, g); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		h, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("reparse of rewritten graph failed: %v", err)
		}
		if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() || h.TotalWeight() != g.TotalWeight() {
			t.Fatalf("round trip changed the graph: %v vs %v", g, h)
		}
	})
}

// declaredMTXDim extracts the row count a MatrixMarket input declares, so
// the fuzz harness can skip inputs whose only effect is a giant
// allocation.
func declaredMTXDim(data []byte) int {
	for _, line := range strings.Split(string(data), "\n")[:min(40, strings.Count(string(data), "\n")+1)] {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return 0
		}
		d, err := strconv.Atoi(fields[0])
		if err != nil {
			return 0
		}
		return d
	}
	return 0
}

// FuzzMinCut is differential: ParCut, NOI and Stoer–Wagner must agree on
// every input, with the brute-force oracle as well when 2 ≤ n ≤ 12, and
// every witness must re-evaluate to the reported value.
func FuzzMinCut(f *testing.F) {
	f.Add([]byte{6, 0, 1, 2, 0, 1, 2, 2, 0, 2, 3, 2, 0, 3, 4, 2, 0, 4, 5, 2, 0, 5, 0, 2, 0})
	f.Add([]byte{3, 0, 1, 1, 0})
	f.Add([]byte{12, 0, 1, 1, 0, 1, 2, 1, 0, 3, 4, 5, 0})
	// A weighted path.
	f.Add([]byte{6, 0, 1, 3, 0, 1, 2, 1, 0, 2, 3, 4, 0, 3, 4, 1, 0, 4, 5, 5, 0})
	// A weighted cycle whose three lightest edges tie.
	f.Add([]byte{7, 0, 1, 3, 0, 1, 2, 1, 0, 2, 3, 4, 0, 3, 4, 1, 0, 4, 5, 5, 0, 5, 6, 1, 0, 6, 0, 2, 0})
	// A theta graph: three weighted chains between hubs 0 and 1.
	f.Add([]byte{8, 0, 2, 2, 0, 2, 3, 5, 0, 3, 1, 3, 0, 0, 4, 4, 0, 4, 1, 4, 0,
		0, 5, 6, 0, 5, 6, 1, 0, 6, 7, 7, 0, 7, 1, 2, 0})
	// A weighted cycle hanging off a K4.
	f.Add([]byte{7, 0, 1, 3, 0, 0, 2, 3, 0, 0, 3, 3, 0, 1, 2, 3, 0, 1, 3, 3, 0, 2, 3, 3, 0,
		0, 4, 2, 0, 4, 5, 5, 0, 5, 6, 1, 0, 6, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := decodeEdges(data)
		g, err := FromEdges(n, edges)
		if err != nil {
			return
		}
		algos := []Algorithm{AlgoParallel, AlgoNOI, AlgoStoerWagner}
		values := make([]int64, len(algos))
		for i, algo := range algos {
			cut := Solve(g, Options{Algorithm: algo, Seed: 1}) // must never panic
			values[i] = cut.Value
			if n < 2 {
				continue
			}
			if cut.Side != nil {
				if len(cut.Side) != n {
					t.Fatalf("%s: witness length %d, want %d", algo, len(cut.Side), n)
				}
				if got := verify.CutValue(g, cut.Side); got != cut.Value {
					t.Fatalf("%s: reported %d but witness re-evaluates to %d", algo, cut.Value, got)
				}
			}
		}
		if values[0] != values[1] || values[1] != values[2] {
			t.Fatalf("ParCut=%d NOI=%d StoerWagner=%d", values[0], values[1], values[2])
		}
		if n >= 2 && n <= 12 {
			if want, _ := verify.BruteForceMinCut(g); values[0] != want {
				t.Fatalf("solvers agree on %d, brute-force oracle %d", values[0], want)
			}
		}
		// The all-cuts subsystem shares the no-panic guarantee. Hitting
		// the cut cap is benign; any other error means the enumeration
		// produced an inconsistent cut family — a real bug.
		all, err := AllMinCuts(g, AllCutsOptions{MaxCuts: 4096})
		if errors.Is(err, ErrTooManyCuts) {
			return
		}
		if err != nil {
			t.Fatalf("AllMinCuts: %v", err)
		}
		for _, side := range all.Cuts {
			if got := verify.CutValue(g, side); got != all.Lambda {
				t.Fatalf("AllMinCuts: cut evaluates to %d, λ=%d", got, all.Lambda)
			}
		}
	})
}
