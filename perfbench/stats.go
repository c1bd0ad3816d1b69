package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a timing percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// tailLadder lists the percentiles the rule chooses from, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// rank returns the 1-based nearest-rank position of the p-th percentile
// in n sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps float rounding (99.99/100*1e5 = 99990.00000000001)
	// from moving the rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the p-th percentile of sorted (ascending) by the
// nearest-rank rule and the number of samples beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	r := rank(len(sorted), p)
	return sorted[r-1], len(sorted) - r
}

// tailPercentile returns the highest percentile of tailLadder that has
// at least minBeyond of n samples beyond it; ok is false when n is too
// small for any of them.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean returns the geometric mean of xs, which must be positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
