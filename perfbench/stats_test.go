package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p          float64
		v          float64
		wantBeyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
	} {
		v, beyond := percentile(sorted, c.p)
		if v != c.v || beyond != c.wantBeyond {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", c.p, v, beyond, c.v, c.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 50); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("percentile of no samples = %g, %d; want NaN, 0", v, beyond)
	}
}

// The rule: report the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 75, true},
		{100, 90, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok {
			if r := rank(c.n, p); c.n-r < minBeyond {
				t.Errorf("n=%d: p%g has %d beyond", c.n, p, c.n-r)
			}
		}
	}
}

func TestMedianMeanGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if m := mean([]float64{1, 2, 3, 6}); m != 3 {
		t.Errorf("mean = %g", m)
	}
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %g", g)
	}
}
