package kcore

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Property: core numbers are bounded by degrees and invariant under
// vertex order; the k-core operation is idempotent.
func TestPropertyCoreNumberBounds(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := 2 + int(nRaw%60)
		m := int(mRaw % 180)
		g := gen.GNM(n, m, seed)
		core := CoreNumbers(g)
		for v := 0; v < n; v++ {
			if core[v] > int32(g.Degree(int32(v))) {
				t.Logf("core[%d]=%d > degree %d", v, core[v], g.Degree(int32(v)))
				return false
			}
			if core[v] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropertyKCoreIdempotent(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int32(kRaw%6) + 1
		g := gen.GNM(50, 150, seed)
		once, _ := KCore(g, k)
		twice, _ := KCore(once, k)
		return graph.Equal(once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the (k+1)-core is a subgraph of the k-core (nesting).
func TestPropertyCoreNesting(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int32(kRaw % 8)
		g := gen.BarabasiAlbert(200, 3, seed)
		core := CoreNumbers(g)
		inner, outerIDs := KCore(g, k+1)
		_ = inner
		// Every vertex of the (k+1)-core must have core number ≥ k+1,
		// hence also belong to the k-core.
		for _, id := range outerIDs {
			if core[id] < k+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: degeneracy equals the maximum k for which the k-core is
// non-empty.
func TestPropertyDegeneracyConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.GNM(40, 120, seed)
		if g.NumVertices() == 0 {
			return true
		}
		var d int32 // the degeneracy: the maximum core number
		for _, c := range CoreNumbers(g) {
			d = max(d, c)
		}
		atD, _ := KCore(g, d)
		aboveD, _ := KCore(g, d+1)
		return atD.NumVertices() > 0 && aboveD.NumVertices() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
