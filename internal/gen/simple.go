package gen

import (
	"fmt"

	"repro/internal/graph"
)

// Ring returns the n-cycle with unit weights. Its minimum cut is 2 (any
// two edges), a useful known-answer instance.
func Ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n), 1)
	}
	return b.MustBuild()
}

// Path returns the n-path with unit weights; its minimum cut is 1.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	return b.MustBuild()
}

// Complete returns K_n with unit weights; its minimum cut is n-1.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j), 1)
		}
	}
	return b.MustBuild()
}

// Grid returns the rows×cols grid graph with unit weights; its minimum cut
// is min(rows, cols) for rows, cols ≥ 2 realized by a straight cut... more
// precisely it is min(rows, cols) when both ≥ 2 (a corner vertex has
// degree 2, so for min(rows,cols) > 2 the straight cut beats the trivial
// one).
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c), 1)
			}
		}
	}
	return b.MustBuild()
}

// Star returns the star K_{1,n-1}; its minimum cut is 1.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i), 1)
	}
	return b.MustBuild()
}

// GNM returns a uniform random simple graph with n vertices and (up to) m
// distinct edges, unit weights. Duplicate picks are aggregated by the
// builder, so the edge count can be slightly below m on dense requests;
// tests that need the exact count should use small m/n ratios.
func GNM(n, m int, seed uint64) *graph.Graph {
	rng := NewRNG(seed)
	b := graph.NewBuilder(n)
	seen := make(map[uint64]bool, m)
	attempts := 0
	for len(seen) < m && attempts < 20*m+100 {
		attempts++
		u := rng.Int31n(int32(n))
		v := rng.Int31n(int32(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := uint64(u)<<32 | uint64(uint32(v))
		if seen[k] {
			continue
		}
		seen[k] = true
		b.AddEdge(u, v, 1)
	}
	return b.MustBuild()
}

// GNMWeighted is GNM with integer weights uniform in [1, maxWeight].
func GNMWeighted(n, m int, maxWeight int64, seed uint64) *graph.Graph {
	rng := NewRNG(seed)
	b := graph.NewBuilder(n)
	seen := make(map[uint64]bool, m)
	attempts := 0
	for len(seen) < m && attempts < 20*m+100 {
		attempts++
		u := rng.Int31n(int32(n))
		v := rng.Int31n(int32(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := uint64(u)<<32 | uint64(uint32(v))
		if seen[k] {
			continue
		}
		seen[k] = true
		b.AddEdge(u, v, 1+rng.Int63n(maxWeight))
	}
	return b.MustBuild()
}

// ConnectedGNM returns a connected uniform-ish random graph: a random
// spanning tree plus m-(n-1) additional uniform edges. Weights are 1.
func ConnectedGNM(n, m int, seed uint64) *graph.Graph {
	rng := NewRNG(seed)
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		// Attach each vertex to a random earlier vertex: random tree.
		b.AddEdge(perm[i], perm[rng.Intn(i)], 1)
	}
	for i := n - 1; i < m; i++ {
		u := rng.Int31n(int32(n))
		v := rng.Int31n(int32(n))
		if u != v {
			b.AddEdge(u, v, 1)
		}
	}
	return b.MustBuild()
}

// PlantedCut returns a graph made of two ConnectedGNM blocks of sizes
// n1 and n2 joined by exactly crossing unit-weight edges, together with
// the planted side (true for vertices in the first block). When the
// blocks are internally well connected (intraM ≫ crossing) the minimum
// cut is exactly the planted one; tests verify this against brute force
// on small instances rather than assuming it.
func PlantedCut(n1, n2, intraM, crossing int, seed uint64) (*graph.Graph, []bool) {
	rng := NewRNG(seed)
	g1 := ConnectedGNM(n1, intraM, rng.Uint64())
	g2 := ConnectedGNM(n2, intraM, rng.Uint64())
	b := graph.NewBuilder(n1 + n2)
	g1.ForEachEdge(func(u, v int32, w int64) { b.AddEdge(u, v, w) })
	g2.ForEachEdge(func(u, v int32, w int64) { b.AddEdge(u+int32(n1), v+int32(n1), w) })
	used := map[uint64]bool{}
	for len(used) < crossing {
		u := rng.Int31n(int32(n1))
		v := rng.Int31n(int32(n2)) + int32(n1)
		k := uint64(u)<<32 | uint64(uint32(v))
		if used[k] {
			continue
		}
		used[k] = true
		b.AddEdge(u, v, 1)
	}
	side := make([]bool, n1+n2)
	for i := 0; i < n1; i++ {
		side[i] = true
	}
	return b.MustBuild(), side
}

// Barbell returns two cliques of size k connected by a single bridge; the
// minimum cut is 1.
func Barbell(k int) *graph.Graph {
	b := graph.NewBuilder(2 * k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(int32(i), int32(j), 1)
			b.AddEdge(int32(k+i), int32(k+j), 1)
		}
	}
	b.AddEdge(0, int32(k), 1)
	return b.MustBuild()
}

// CliqueChain returns a chain of `blocks` unit-weight cliques of `size`
// vertices each (size ≥ 3), consecutive cliques joined by one bridge.
// The minimum cut is 1, realized by exactly the blocks-1 bridges, and
// the all-cuts kernelization contracts every clique to a point — a
// kernel-heavy instance for the cactus differential suite (the cactus is
// a path of `blocks` nodes).
func CliqueChain(blocks, size int) *graph.Graph {
	if blocks < 1 || size < 3 {
		panic(fmt.Sprintf("gen: CliqueChain(%d, %d) needs blocks ≥ 1 and size ≥ 3", blocks, size))
	}
	b := graph.NewBuilder(blocks * size)
	id := func(blk, i int) int32 { return int32(blk*size + i) }
	for blk := 0; blk < blocks; blk++ {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddEdge(id(blk, i), id(blk, j), 1)
			}
		}
		if blk+1 < blocks {
			b.AddEdge(id(blk, size-1), id(blk+1, 0), 1)
		}
	}
	return b.MustBuild()
}

// RingOfCliques joins k unit-weight cliques of s ≥ 4 vertices into a
// ring by single edges: λ = 2, δ = s-1, and every minimum cut removes two
// ring edges, k(k-1)/2 cuts in all (at s = 3 each triangle's middle
// vertex would add a degree-2 cut of its own). Contracting the cliques
// leaves a k-cycle, the shape the solvers' series reduction folds.
func RingOfCliques(k, s int) *graph.Graph {
	if k < 3 || s < 4 {
		panic(fmt.Sprintf("gen: RingOfCliques(%d, %d) needs k ≥ 3 and s ≥ 4", k, s))
	}
	b := graph.NewBuilder(k * s)
	for c := 0; c < k; c++ {
		base := int32(c * s)
		for i := int32(0); i < int32(s); i++ {
			for j := i + 1; j < int32(s); j++ {
				b.AddEdge(base+i, base+j, 1)
			}
		}
		b.AddEdge(base+int32(s-1), int32((c+1)%k*s), 1)
	}
	return b.MustBuild()
}

// StarOfCycles returns `arms` unit-weight cycles all sharing vertex 0,
// each with armLen ≥ 2 private vertices (so every cycle has armLen+1
// edges). The minimum cut is 2; the cuts are the edge pairs within one
// arm — arms·C(armLen+1, 2) of them — and the cactus is `arms` cycles
// glued at one node, the canonical shape for exercising cuts realized by
// more than one edge-pair removal.
func StarOfCycles(arms, armLen int) *graph.Graph {
	if arms < 1 || armLen < 2 {
		panic(fmt.Sprintf("gen: StarOfCycles(%d, %d) needs arms ≥ 1 and armLen ≥ 2", arms, armLen))
	}
	b := graph.NewBuilder(1 + arms*armLen)
	for a := 0; a < arms; a++ {
		first := int32(1 + a*armLen)
		b.AddEdge(0, first, 1)
		for i := 0; i+1 < armLen; i++ {
			b.AddEdge(first+int32(i), first+int32(i+1), 1)
		}
		b.AddEdge(first+int32(armLen-1), 0, 1)
	}
	return b.MustBuild()
}
