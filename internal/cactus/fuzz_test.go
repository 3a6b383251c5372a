package cactus

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/verify"
)

// decodeEdges turns fuzz bytes into an (n, edges) pair, the same decoder
// as the root package's fuzz targets: endpoints and weights come straight
// from the input, so graph.FromEdges sees out-of-range ids, self loops
// and non-positive weights too.
func decodeEdges(data []byte) (int, []graph.Edge) {
	if len(data) == 0 {
		return 0, nil
	}
	n := int(data[0]) % 24
	data = data[1:]
	var edges []graph.Edge
	for len(data) >= 4 && len(edges) < 128 {
		u := int32(int8(data[0]))
		v := int32(int8(data[1]))
		w := int64(int16(binary.LittleEndian.Uint16(data[2:4])))
		edges = append(edges, graph.Edge{U: u, V: v, Weight: w})
		data = data[4:]
	}
	return n, edges
}

// FuzzAllMinCuts is the differential fuzz target for the cut
// enumeration: the Karzanov–Timofeev recursion (run with its step
// sharding active via Workers > 1) and the per-vertex Picard–Queyranne
// reference must agree on λ, on the number of minimum cuts, and on the
// cut-set fingerprint (canonical masks) for every graph the decoder can
// build; a sequential KT run must reproduce the sharded cut list
// exactly, and each cactus must re-encode exactly the enumerated family.
// Run with `go test -fuzz FuzzAllMinCuts ./internal/cactus`.
func FuzzAllMinCuts(f *testing.F) {
	f.Add([]byte{6, 0, 1, 2, 0, 1, 2, 2, 0, 2, 3, 2, 0, 3, 4, 2, 0, 4, 5, 2, 0, 5, 0, 2, 0})
	f.Add([]byte{8, 0, 1, 1, 0, 1, 2, 1, 0, 2, 0, 1, 0, 2, 3, 2, 0, 3, 4, 1, 0, 4, 5, 1, 0, 5, 3, 1, 0})
	f.Add([]byte{12, 0, 1, 1, 0, 3, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := decodeEdges(data)
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return
		}
		ctx := context.Background()
		kt, errKT := AllMinCuts(ctx, g, Options{MaxCuts: 4096, Workers: 3})
		quad, errQ := allMinCuts(ctx, g, Options{MaxCuts: 4096}, enumerateQuadratic)
		seq, errSeq := AllMinCuts(ctx, g, Options{MaxCuts: 4096, Workers: 1})
		if (errSeq == nil) != (errKT == nil) || (errSeq != nil && !errors.Is(errKT, ErrTooManyCuts) != !errors.Is(errSeq, ErrTooManyCuts)) {
			t.Fatalf("KT worker asymmetry: Workers=3 %v, Workers=1 %v", errKT, errSeq)
		}
		if errKT == nil && errSeq == nil {
			if seq.Count != kt.Count || len(seq.Cuts) != len(kt.Cuts) {
				t.Fatalf("KT worker count changed the cut family: %d vs %d", kt.Count, seq.Count)
			}
			for i := range seq.Cuts {
				for v := range seq.Cuts[i] {
					if seq.Cuts[i][v] != kt.Cuts[i][v] {
						t.Fatalf("KT cut %d differs between Workers=3 and Workers=1", i)
					}
				}
			}
		}
		// The cap counts distinct cuts in both enumerators, so overflow
		// must strike both or neither.
		if errors.Is(errKT, ErrTooManyCuts) || errors.Is(errQ, ErrTooManyCuts) {
			if !errors.Is(errKT, ErrTooManyCuts) || !errors.Is(errQ, ErrTooManyCuts) {
				t.Fatalf("cap overflow asymmetry: KT %v, quadratic %v", errKT, errQ)
			}
			return
		}
		if errKT != nil || errQ != nil {
			t.Fatalf("AllMinCuts errors: KT %v, quadratic %v", errKT, errQ)
		}
		if kt.Lambda != quad.Lambda || kt.Connected != quad.Connected || kt.Count != quad.Count {
			t.Fatalf("enumerators disagree: KT λ=%d connected=%v #%d, quadratic λ=%d connected=%v #%d",
				kt.Lambda, kt.Connected, kt.Count, quad.Lambda, quad.Connected, quad.Count)
		}
		if !kt.Connected {
			return
		}
		// Cut-set fingerprints must be identical, and every cut must
		// re-evaluate to λ (the decoder caps n below 24, so canonical
		// uint32 masks are available).
		masks := map[uint32]bool{}
		for _, side := range kt.Cuts {
			if got := verify.CutValue(g, side); got != kt.Lambda {
				t.Fatalf("KT cut evaluates to %d, λ=%d", got, kt.Lambda)
			}
			masks[verify.CanonicalMask(side)] = true
		}
		if len(masks) != kt.Count {
			t.Fatalf("KT emitted %d distinct cuts, Count=%d", len(masks), kt.Count)
		}
		for _, side := range quad.Cuts {
			if !masks[verify.CanonicalMask(side)] {
				t.Fatalf("quadratic cut missing from KT fingerprint set")
			}
		}
		// Both cactuses must re-encode exactly the enumerated family.
		for name, res := range map[string]*Result{"KT": kt, "quadratic": quad} {
			if res.Cactus == nil {
				t.Fatalf("%s: nil cactus for connected graph", name)
			}
			encoded := 0
			res.Cactus.EachMinCut(func(side []bool) bool {
				if !masks[verify.CanonicalMask(side)] {
					t.Fatalf("%s cactus encodes a cut outside the enumerated family", name)
				}
				encoded++
				return true
			})
			if encoded != res.Count {
				t.Fatalf("%s cactus encodes %d cuts, enumeration found %d", name, encoded, res.Count)
			}
		}
	})
}
