package main

import (
	"math"
	"sort"
)

// minBeyond is the sample count a reported percentile needs beyond it: with
// fewer, the "percentile" is one of a handful of worst cases, not a quantile.
const minBeyond = 10

// quantile returns sorted[⌈q·n⌉−1], the smallest sample with at least a share
// q of the samples at or below it. sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// percentile sorts a copy of xs and returns its q-quantile. ok is false when
// fewer than minBeyond samples lie beyond the quantile on its far side (above
// it for q ≥ 0.5, below it otherwise) — the caller must not report it.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	at := int(math.Ceil(q * float64(len(s))))
	if at < 1 {
		at = 1
	}
	beyond := len(s) - at
	if q < 0.5 {
		beyond = at - 1
	}
	return quantile(s, q), beyond >= minBeyond
}

// median is the 0.5-quantile without the guard: set-up medians (n = 21) and
// probe medians (n = 5) are central values, not tail claims.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sortedCopy(xs), 0.5)
}

// quartiles returns the first and third quartile by the same rule.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	return quantile(s, 0.25), quantile(s, 0.75)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// iqrShare is the distance between the first and third quartile as a share of
// the median — the spread figure every table in the README uses.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
