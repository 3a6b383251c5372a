package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// TestKernelPreservesAllMinCuts checks the central contract of
// KernelizeAllCuts: no minimum cut of the input separates two vertices of
// the same kernel block, and the kernel has exactly the same minimum-cut
// family (value and count) as the input.
func TestKernelPreservesAllMinCuts(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		n := 5 + int(seed%8)
		g := gen.ConnectedGNM(n, n+int(seed%uint64(2*n)), seed*617)
		lambda, cuts := verify.AllMinimumCuts(g)
		if lambda <= 0 {
			continue
		}
		k, _ := KernelizeAllCuts(context.Background(), g, lambda, 0, seed)
		if k.Lambda != lambda {
			t.Fatalf("seed %d: kernel λ=%d, want %d", seed, k.Lambda, lambda)
		}
		if len(k.Labels) != n {
			t.Fatalf("seed %d: labels length %d, want %d", seed, len(k.Labels), n)
		}
		for _, mask := range cuts {
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if k.Labels[u] == k.Labels[v] &&
						(mask>>uint(u))&1 != (mask>>uint(v))&1 {
						t.Fatalf("seed %d: kernel merged %d and %d, separated by minimum cut %x",
							seed, u, v, mask)
					}
				}
			}
		}
		// The kernel's own minimum-cut family must be in bijection with
		// the input's.
		if nk := k.Graph.NumVertices(); nk >= 2 && nk <= 24 {
			kl, kcuts := verify.AllMinimumCuts(k.Graph)
			if kl != lambda {
				t.Fatalf("seed %d: kernel min cut %d, want %d", seed, kl, lambda)
			}
			if len(kcuts) != len(cuts) {
				t.Fatalf("seed %d: kernel has %d minimum cuts, input has %d",
					seed, len(kcuts), len(cuts))
			}
		}
	}
}

// TestKernelContractsBlobRing checks the kernel actually shrinks a graph
// whose dense blocks are certified above λ.
func TestKernelContractsBlobRing(t *testing.T) {
	const blobs, bs = 6, 5
	b := graph.NewBuilder(blobs * bs)
	id := func(blob, i int) int32 { return int32(blob*bs + i) }
	for blob := 0; blob < blobs; blob++ {
		for i := 0; i < bs; i++ {
			for j := i + 1; j < bs; j++ {
				b.AddEdge(id(blob, i), id(blob, j), 4)
			}
		}
		b.AddEdge(id(blob, 0), id((blob+1)%blobs, 1), 1)
	}
	g := b.MustBuild()
	k, _ := KernelizeAllCuts(context.Background(), g, 2, 0, 1)
	if k.Graph.NumVertices() != blobs {
		t.Fatalf("kernel has %d vertices, want %d", k.Graph.NumVertices(), blobs)
	}
	if k.Rounds == 0 {
		t.Fatal("kernelization reported zero rounds despite contracting")
	}
}

// TestKernelDegenerate covers inputs the kernelization must pass through
// unchanged.
func TestKernelDegenerate(t *testing.T) {
	pair := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, Weight: 3}})
	k, _ := KernelizeAllCuts(context.Background(), pair, 3, 0, 1)
	if k.Graph.NumVertices() != 2 || k.Labels[0] == k.Labels[1] {
		t.Fatalf("K_2 kernel altered: %d vertices", k.Graph.NumVertices())
	}
	ring := gen.Ring(8) // every edge has connectivity exactly λ=2: fixpoint
	k, _ = KernelizeAllCuts(context.Background(), ring, 2, 0, 1)
	if k.Graph.NumVertices() != 8 {
		t.Fatalf("ring kernel contracted to %d vertices; no edge is certified above λ", k.Graph.NumVertices())
	}
}

// TestCertifyConnectivity is a known-answer table for the deletion
// probe on two K_6 joined by the bridge {5, 6} (λ = 1), at the threshold
// Snapshot.Apply asks for when deleting a unit edge, λ+w+1 = 3. A pair
// u = v is certified outright; a clique edge has connectivity 5 and is
// certified; the bridge has connectivity 1, so no sound certificate
// exists and the probe stays inconclusive.
func TestCertifyConnectivity(t *testing.T) {
	b := graph.NewBuilder(12)
	for c := int32(0); c < 12; c += 6 {
		for u := c; u < c+6; u++ {
			for v := u + 1; v < c+6; v++ {
				b.AddEdge(u, v, 1)
			}
		}
	}
	b.AddEdge(5, 6, 1)
	g := b.MustBuild()
	cases := []struct {
		name string
		u, v int32
		want bool
	}{
		{"same vertex", 3, 3, true},
		{"clique edge", 0, 1, true},
		{"bridge", 5, 6, false},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 8; seed++ {
			got, err := CertifyConnectivity(context.Background(), g, tc.u, tc.v, 3, 0, seed)
			if err != nil || got != tc.want {
				t.Fatalf("%s {%d,%d}, seed %d: got %v, %v; want %v", tc.name, tc.u, tc.v, seed, got, err, tc.want)
			}
		}
	}
}
