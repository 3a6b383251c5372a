package main

import (
	"slices"
	"time"
)

// tailBeyond is how many samples must lie above the tail percentile: the
// reported tail is the highest percentile the sample supports with at
// least this many slower samples behind it.
const tailBeyond = 10

// tailIndex returns the index, in an ascending slice of n samples, of
// the tail sample: the one with exactly tailBeyond samples above it. With
// n ≤ tailBeyond no percentile has enough samples beyond it, and the
// maximum is returned instead.
func tailIndex(n int) int {
	if n > tailBeyond {
		return n - tailBeyond - 1
	}
	return n - 1
}

// tailPercentile is the percentile that tailIndex(n) selects.
func tailPercentile(n int) float64 {
	return 100 * float64(tailIndex(n)+1) / float64(n)
}

// dist summarizes latencies in milliseconds.
type dist struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64
}

func summarize(lat []time.Duration) dist {
	if len(lat) == 0 {
		return dist{}
	}
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(ms)
	i := tailIndex(len(ms))
	return dist{n: len(ms), p50: medianSorted(ms), tail: ms[i], tailPct: tailPercentile(len(ms))}
}

// median returns the median of xs (the mean of the middle pair for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mediansMS(ds []time.Duration) float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = durMS(d)
	}
	return median(ms)
}
