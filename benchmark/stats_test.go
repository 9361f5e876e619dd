package main

import (
	"math"
	"testing"
)

func TestQuantileRule(t *testing.T) {
	// sorted[⌈q·n⌉−1]
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.91, 100}, {1, 100}, {0.1, 10}, {0.11, 20}, {0, 10},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 4 = %g, want the lower middle 2", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	v, ok := percentile(xs, 0.9)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %g ok=%v, want 90 with exactly ten samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples has nine beyond it and must not be reported")
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 100 samples has one beyond it and must not be reported")
	}
	if _, ok := percentile(xs[:21], 0.5); !ok {
		t.Error("the median of 21 samples has ten beyond it and is reportable")
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Error("the median of 19 samples has only nine above it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("an empty sample supports nothing")
	}
}

func TestIQRShare(t *testing.T) {
	// quartiles 2 and 6 around median 4 by the ⌈q·n⌉−1 rule
	got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare = %g, want (6−2)/4 = 1", got)
	}
}
