package bench

import (
	"context"
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
)

// Scale selects experiment sizes. The paper runs n up to 2^25 and m up to
// 3.3G on a 1.5 TB machine; the defaults here are laptop-scale versions
// of the same sweeps. Every size is a knob, not a constant.
type Scale struct {
	// RHGScales are log2 vertex counts for the Figure 2 sweep (paper:
	// 20..25).
	RHGScales []int
	// RHGDegExps are log2 average degrees (paper: 5..8).
	RHGDegExps []int
	// CoreBase is the vertex-count scale of the synthetic web/social
	// instances (paper: up to 106M vertices).
	CoreBase int
	// Reps is the repetition count per measurement (paper: 5).
	Reps int
	// Seed drives all generators.
	Seed uint64
	// Ctx, when non-nil, cancels a running experiment: the harness checks
	// it at instance boundaries and returns whatever was measured so far
	// (cmd/bench wires SIGINT here).
	Ctx context.Context
}

// Cancelled reports whether the experiment's context has been cancelled.
func (s Scale) Cancelled() bool { return s.Ctx != nil && s.Ctx.Err() != nil }

// SmallScale finishes in a few minutes on a laptop.
func SmallScale() Scale {
	return Scale{
		RHGScales:  []int{11, 12, 13},
		RHGDegExps: []int{4, 5, 6},
		CoreBase:   1 << 14,
		Reps:       3,
		Seed:       1,
	}
}

// MediumScale is cmd/bench -scale medium.
func MediumScale() Scale {
	return Scale{
		RHGScales:  []int{12, 13, 14},
		RHGDegExps: []int{4, 5, 6, 7},
		CoreBase:   1 << 15,
		Reps:       3,
		Seed:       1,
	}
}

// LargeScale approaches the paper's relative sweep widths (still far from
// 1.5 TB territory).
func LargeScale() Scale {
	return Scale{
		RHGScales:  []int{13, 14, 15, 16},
		RHGDegExps: []int{5, 6, 7, 8},
		CoreBase:   1 << 17,
		Reps:       5,
		Seed:       1,
	}
}

// Instance is a named benchmark graph.
type Instance struct {
	Name string
	G    *graph.Graph
}

// RHGInstances generates the Figure 2 workload: random hyperbolic graphs
// with power-law exponent 5 across the scale/degree grid, reduced to
// their largest connected component.
func RHGInstances(s Scale) []Instance {
	var out []Instance
	for _, sc := range s.RHGScales {
		for _, de := range s.RHGDegExps {
			n := 1 << sc
			deg := float64(int(1) << de)
			g := gen.RHG(n, deg, 5, s.Seed+uint64(sc*100+de))
			lc, _ := g.LargestComponent()
			out = append(out, Instance{
				Name: fmt.Sprintf("rhg_%d_%d", sc, de),
				G:    lc,
			})
		}
	}
	return out
}

// CoreInstance describes one row of the paper's Table 1: a base graph and
// a k value whose core (largest component) is the benchmark instance.
type CoreInstance struct {
	Name  string
	BaseN int
	BaseM int
	K     int32
	G     *graph.Graph
}

// CoreInstances builds the synthetic stand-ins for the paper's web and
// social k-core instances (§A.2, Table 1): clustered Barabási–Albert
// graphs play the social networks (hollywood, orkut, twitter) and
// clustered RMAT graphs the web crawls (uk-2002, gsh-2015, uk-2007). Each
// instance assembles several k-core parts with weak inter-cluster links
// so that — as in every interesting row of the paper's Table 1 — the
// minimum cut λ is strictly below the minimum degree δ (λ = 1 on the
// web-like cores, larger on the social-like ones).
func CoreInstances(s Scale) []CoreInstance {
	n := s.CoreBase
	type spec struct {
		name  string
		parts []*graph.Graph
		inter []int
		k     int32
	}
	baParts := func(count, size, k int, seed uint64) []*graph.Graph {
		parts := make([]*graph.Graph, count)
		for i := range parts {
			parts[i] = gen.BarabasiAlbert(size, k, seed+uint64(i))
		}
		return parts
	}
	rmatParts := func(count, scale, ef int, k int32, seed uint64) []*graph.Graph {
		parts := make([]*graph.Graph, count)
		for i := range parts {
			g, _ := kcore.LargestComponentOfKCore(gen.RMATDefault(scale, ef, seed+uint64(i)), k)
			parts[i] = g
		}
		return parts
	}
	specs := []spec{
		// Social-like: moderate λ well below δ (paper: com-orkut λ=70..89
		// at δ≈100, hollywood λ=27..77).
		{"ba-social", baParts(3, n/3, 10, s.Seed+11), []int{5, 7}, 10},
		{"ba-social", baParts(3, n/3, 15, s.Seed+31), []int{9, 12}, 15},
		{"ba-dense", baParts(2, n/2, 25, s.Seed+13), []int{17}, 25},
		// Web-like: λ = 1 (paper: all uk-2002/gsh-2015/uk-2007 cores).
		{"rmat-web", rmatParts(3, log2floor(n)-1, 16, 10, s.Seed+17), []int{1, 2}, 10},
		{"rmat-web", rmatParts(3, log2floor(n)-1, 16, 15, s.Seed+19), []int{1, 3}, 15},
		{"rmat-web", rmatParts(2, log2floor(n), 16, 20, s.Seed+23), []int{1}, 20},
	}
	var out []CoreInstance
	for i, sp := range specs {
		assembled := gen.AssembleWeaklyLinked(sp.parts, sp.inter, s.Seed+uint64(100+i))
		g, _ := kcore.LargestComponentOfKCore(assembled, sp.k)
		if g.NumVertices() < 64 {
			continue // dissolved at this scale
		}
		out = append(out, CoreInstance{
			Name:  fmt.Sprintf("%s_k%d", sp.name, sp.k),
			BaseN: assembled.NumVertices(),
			BaseM: assembled.NumEdges(),
			K:     sp.k,
			G:     g,
		})
	}
	return out
}

// ScalingInstances returns the five-graph set of the paper's Figure 5:
// two λ=1 web-like cores (gsh-2015-host and uk-2007-05 at k=10 in the
// paper), one λ=3 social core (twitter-2010 at k=50), and two higher-λ
// RHG graphs (λ=118 and λ=73 in the paper).
func ScalingInstances(s Scale) []Instance {
	n := s.CoreBase
	var out []Instance
	webParts := func(seed uint64) []*graph.Graph {
		parts := make([]*graph.Graph, 3)
		for i := range parts {
			g, _ := kcore.LargestComponentOfKCore(gen.RMATDefault(log2floor(n), 16, seed+uint64(i)), 10)
			parts[i] = g
		}
		return parts
	}
	web1 := gen.AssembleWeaklyLinked(webParts(s.Seed+21), []int{1}, s.Seed+210)
	out = append(out, Instance{Name: "web1_k10", G: web1})
	web2 := gen.AssembleWeaklyLinked(webParts(s.Seed+23), []int{1, 2}, s.Seed+230)
	out = append(out, Instance{Name: "web2_k10", G: web2})
	soc := make([]*graph.Graph, 2)
	for i := range soc {
		soc[i] = gen.BarabasiAlbert(n, 25, s.Seed+29+uint64(i))
	}
	social := gen.AssembleWeaklyLinked(soc, []int{3}, s.Seed+290)
	out = append(out, Instance{Name: "social_k25", G: social})
	maxScale := s.RHGScales[len(s.RHGScales)-1]
	maxDeg := s.RHGDegExps[len(s.RHGDegExps)-1]
	for i := uint64(1); i <= 2; i++ {
		g := gen.RHG(1<<maxScale, float64(int(1)<<maxDeg), 5, s.Seed+1000*i)
		lc, _ := g.LargestComponent()
		out = append(out, Instance{Name: fmt.Sprintf("rhg_%d_%d_%d", maxScale, maxDeg, i), G: lc})
	}
	return out
}

func log2floor(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
