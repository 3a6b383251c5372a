package gen

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// Random hyperbolic graphs (Krioukov et al.), the generated family of the
// paper's §A.1: n points in a hyperbolic disk of radius R, an edge between
// every pair at hyperbolic distance at most R. The radial density
// α·sinh(αr)/(cosh(αR)-1) yields a power-law degree distribution with
// exponent β = 2α+1; the paper uses β = 5 (α = 2) so that minimum cuts are
// non-trivial, and average degrees 2^5..2^8.
//
// RHG uses a radial-band candidate search in the spirit of von Looz et
// al. (ISAAC 2015, the NetworKit generator the paper calls): points are
// bucketed into radial bands, each band sorted by angle; for a query
// point only the angular window that could possibly be within distance R
// of the band's inner radius is examined. The package tests cross-check
// exact edge-set equality against an O(n²) all-pairs reference.

// rhgPoint caches the hyperbolic trigonometry of a sampled point.
type rhgPoint struct {
	theta float64
	r     float64
	coshR float64
	sinhR float64
	idx   int32
}

// rhgParams derives disk radius R from the target average degree using the
// Krioukov mean-degree approximation  k̄ ≈ (2/π)·ξ²·n·e^{-R/2}  with
// ξ = α/(α-1/2).
func rhgParams(n int, avgDeg, beta float64) (alpha, R float64) {
	alpha = (beta - 1) / 2
	xi := alpha / (alpha - 0.5)
	R = 2 * math.Log((2*xi*xi*float64(n))/(math.Pi*avgDeg))
	if R < 1 {
		R = 1
	}
	return alpha, R
}

func rhgSample(n int, alpha, R float64, seed uint64) []rhgPoint {
	rng := NewRNG(seed)
	pts := make([]rhgPoint, n)
	coshAR := math.Cosh(alpha * R)
	for i := range pts {
		theta := 2 * math.Pi * rng.Float64()
		u := rng.Float64()
		r := math.Acosh(1+u*(coshAR-1)) / alpha
		pts[i] = rhgPoint{
			theta: theta,
			r:     r,
			coshR: math.Cosh(r),
			sinhR: math.Sinh(r),
			idx:   int32(i),
		}
	}
	return pts
}

// hyperbolicConnected reports whether two points are within hyperbolic
// distance R of each other. RHG and the tests' all-pairs reference share
// this predicate so their edge sets agree bit-for-bit.
func hyperbolicConnected(a, b *rhgPoint, coshDiskR float64) bool {
	coshDist := a.coshR*b.coshR - a.sinhR*b.sinhR*math.Cos(a.theta-b.theta)
	return coshDist <= coshDiskR
}

// RHG generates a random hyperbolic graph with n vertices, target average
// degree avgDeg and power-law exponent beta (>2).
func RHG(n int, avgDeg, beta float64, seed uint64) *graph.Graph {
	alpha, R := rhgParams(n, avgDeg, beta)
	pts := rhgSample(n, alpha, R, seed)
	coshDiskR := math.Cosh(R)

	// Radial bands. Most points live near the rim, so spacing bands
	// geometrically toward R balances the band populations.
	numBands := int(math.Max(2, math.Ceil(math.Log2(float64(n+1)))))
	bounds := make([]float64, numBands+1)
	bounds[0] = 0
	for i := 1; i <= numBands; i++ {
		// Doubling the remaining gap to the rim per band: R·(1 - 2^{i-numBands}).
		bounds[i] = R * (1 - math.Pow(2, float64(i-numBands)))
	}
	bounds[numBands] = R + 1e-9
	sort.Float64s(bounds)

	bandOf := func(r float64) int {
		i := sort.SearchFloat64s(bounds, r) // first bound >= r
		if i == 0 {
			return 0
		}
		b := i - 1
		if b >= numBands {
			b = numBands - 1
		}
		return b
	}

	bands := make([][]rhgMember, numBands)
	for i := range pts {
		b := bandOf(pts[i].r)
		bands[b] = append(bands[b], rhgMember{theta: pts[i].theta, idx: pts[i].idx})
	}
	for b := range bands {
		sort.Slice(bands[b], func(i, j int) bool { return bands[b][i].theta < bands[b][j].theta })
	}

	gb := graph.NewBuilder(n)
	// For each point, examine each band's admissible angular window. Edges
	// are added once via the idx(v) > idx(u) convention.
	for i := range pts {
		p := &pts[i]
		for b := 0; b < numBands; b++ {
			mem := bands[b]
			if len(mem) == 0 {
				continue
			}
			lo := bounds[b]
			var maxAngle float64
			if lo <= 1e-12 || p.r <= 1e-12 {
				maxAngle = math.Pi // window covers everything
			} else {
				cosThresh := (p.coshR*math.Cosh(lo) - coshDiskR) / (p.sinhR * math.Sinh(lo))
				switch {
				case cosThresh <= -1:
					maxAngle = math.Pi
				case cosThresh >= 1:
					continue // nothing in this band can connect
				default:
					maxAngle = math.Acos(cosThresh) + 1e-9
				}
			}
			scanBand(gb, p, mem, maxAngle, pts, coshDiskR)
		}
	}
	return gb.MustBuild()
}

// rhgMember is a band entry: a point's angle and id, sorted by angle.
type rhgMember struct {
	theta float64
	idx   int32
}

// scanBand visits all band members within ±maxAngle of p and adds the
// exact-distance edges. The band is sorted by angle; the window may wrap
// around 2π.
func scanBand(gb *graph.Builder, p *rhgPoint, mem []rhgMember, maxAngle float64, pts []rhgPoint, coshDiskR float64) {
	check := func(m rhgMember) {
		if m.idx <= p.idx {
			return
		}
		if hyperbolicConnected(p, &pts[m.idx], coshDiskR) {
			gb.AddEdge(p.idx, m.idx, 1)
		}
	}
	if maxAngle >= math.Pi {
		for _, m := range mem {
			check(m)
		}
		return
	}
	loA, hiA := p.theta-maxAngle, p.theta+maxAngle
	scan := func(from, to float64) {
		i := sort.Search(len(mem), func(k int) bool { return mem[k].theta >= from })
		for ; i < len(mem) && mem[i].theta <= to; i++ {
			check(mem[i])
		}
	}
	switch {
	case loA < 0:
		scan(0, hiA)
		scan(loA+2*math.Pi, 2*math.Pi)
	case hiA > 2*math.Pi:
		scan(loA, 2*math.Pi)
		scan(0, hiA-2*math.Pi)
	default:
		scan(loA, hiA)
	}
}
