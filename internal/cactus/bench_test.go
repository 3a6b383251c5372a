package cactus

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// benchChains enumerates a graph's minimum-cut family once (via KT) so
// the assembly benchmark isolates it from the flow work.
func benchChains(b *testing.B, g *graph.Graph, lambda int64) *ktChains {
	b.Helper()
	fam, err := ktEnumerate(context.Background(), g, 0, lambda, DefaultMaxCuts, 1)
	if err != nil {
		b.Fatal(err)
	}
	return fam.(*ktChains)
}

// BenchmarkCactusBuild times the assembly alone on pre-enumerated KT
// chains: the chain merge, and the bit-matrix reference on the same
// family. The unit rings are the crossing-heavy worst case (one class
// of Θ(n²) cuts); the star of cycles has many small classes.
func BenchmarkCactusBuild(b *testing.B) {
	cases := []struct {
		name   string
		g      *graph.Graph
		lambda int64
	}{
		{"ring_64", gen.Ring(64), 2},
		{"ring_128", gen.Ring(128), 2},
		{"starofcycles_8_12", gen.StarOfCycles(8, 12), 2},
		{"cliquechain_16_6", gen.CliqueChain(16, 6), 1},
	}
	for _, tc := range cases {
		ch := benchChains(b, tc.g, tc.lambda)
		b.Run(fmt.Sprintf("%s/cuts_%d/merge", tc.name, ch.count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ch.cactus(tc.lambda); err != nil {
					b.Fatal(err)
				}
			}
		})
		list := &cutList{nk: ch.nk, cuts: ch.cutsOf(), workers: 1}
		b.Run(fmt.Sprintf("%s/cuts_%d/matrix", tc.name, ch.count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := list.cactus(tc.lambda); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKTEnumerate times the enumeration alone (shared residual
// network, per-step chains) against the quadratic per-vertex reference,
// which runs on the small cases only. The star of cycles puts nearly all chain work in a few steps; the
// ring-of-cliques kernel is what perfbench's allcuts workload enumerates.
func BenchmarkKTEnumerate(b *testing.B) {
	kern, err := core.KernelizeAllCuts(context.Background(), gen.RingOfCliques(512, 16), 2, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		k0     int32
		lambda int64
	}{
		{"ring_96", gen.Ring(96), 0, 2},
		{"gnm_128_256", gen.ConnectedGNM(128, 256, 9), 0, 0},
		{"starofcycles_16_64", gen.StarOfCycles(16, 64), 0, 2},
		{"ringcliques_512_16_kernel", kern.Graph, kern.Labels[0], 2},
	}
	for _, tc := range cases {
		lambda := tc.lambda
		if lambda == 0 {
			res, err := AllMinCuts(context.Background(), tc.g, Options{})
			if err != nil {
				b.Fatal(err)
			}
			lambda = res.Lambda
		}
		b.Run(tc.name+"/kt", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ktEnumerate(context.Background(), tc.g, tc.k0, lambda, DefaultMaxCuts, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/kt_parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ktEnumerate(context.Background(), tc.g, tc.k0, lambda, DefaultMaxCuts, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
		if tc.g.NumVertices() > 128 {
			// The reference takes 2.3 s on the star of cycles and 93 s on
			// the ring-of-cliques kernel (2-core Xeon).
			continue
		}
		b.Run(tc.name+"/quadratic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := enumerateQuadratic(context.Background(), tc.g, tc.k0, lambda, DefaultMaxCuts, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
