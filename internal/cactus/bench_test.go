package cactus

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// benchCuts enumerates a graph's minimum-cut family once (via KT) so the
// assembly benchmark isolates buildCactus from the flow work.
func benchCuts(b *testing.B, g *graph.Graph, lambda int64) []bitset {
	b.Helper()
	cuts, err := ktEnumerate(context.Background(), g, 0, lambda, DefaultMaxCuts, 1)
	if err != nil {
		b.Fatal(err)
	}
	return cuts
}

// BenchmarkCactusBuild times the DKL assembly alone — atoms, crossing
// classes, circular partitions, laminar forest — on pre-enumerated cut
// families. The unit rings are the crossing-heavy worst case (one class
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
		cuts := benchCuts(b, tc.g, tc.lambda)
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/cuts_%d/workers_%d", tc.name, len(cuts), workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := buildCactus(tc.g.NumVertices(), 0, cuts, tc.lambda, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKTEnumerate times the enumeration alone (shared residual
// network, per-step chains) against the quadratic per-vertex reference.
func BenchmarkKTEnumerate(b *testing.B) {
	cases := []struct {
		name   string
		g      *graph.Graph
		lambda int64
	}{
		{"ring_96", gen.Ring(96), 2},
		{"gnm_128_256", gen.ConnectedGNM(128, 256, 9), 0},
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
				if _, err := ktEnumerate(context.Background(), tc.g, 0, lambda, DefaultMaxCuts, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/kt_parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ktEnumerate(context.Background(), tc.g, 0, lambda, DefaultMaxCuts, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/quadratic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := enumerateQuadratic(context.Background(), tc.g, 0, lambda, DefaultMaxCuts, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
