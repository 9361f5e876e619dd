package main

import (
	"math"
	"testing"
)

func TestNormalisationArithmetic(t *testing.T) {
	// A host running the yardstick twice as slow as nominal halves the
	// seconds it reports; a nominal host leaves them alone.
	if got := normalised(0.4, 2*nominalYardstick); math.Abs(got-0.2) > 1e-15 {
		t.Errorf("normalised on a half-speed host = %g, want 0.2", got)
	}
	if got := normalised(0.4, nominalYardstick); math.Abs(got-0.4) > 1e-15 {
		t.Errorf("normalised on the nominal host = %g, want 0.4", got)
	}
	if got := normalised(0.4, 0); got != 0.4 {
		t.Errorf("a zero yardstick reading must leave raw seconds, got %g", got)
	}
	s := sample{raw: 0.3, yard: 0.05}
	if got := s.norm(); math.Abs(got-0.15) > 1e-15 {
		t.Errorf("sample.norm = %g, want 0.15", got)
	}
}

func TestYardstickRecordsReadings(t *testing.T) {
	y := newYardstick()
	ran := false
	s := y.timed(func() { ran = true })
	if !ran || s.yard <= 0 || s.raw < 0 {
		t.Fatalf("timed: ran=%v sample=%+v", ran, s)
	}
	if len(y.seen) != 1 || y.seen[0] != s.yard {
		t.Errorf("seen = %v, want the one reading %g", y.seen, s.yard)
	}
	for _, half := range []struct {
		arrays [3][]float64
		sweeps int
	}{{y.stream, streamSweeps}, {y.resident, residentSweeps}} {
		a, b, c := half.arrays[0], half.arrays[1], half.arrays[2]
		if last := len(a) - 1; a[last] != b[last]+float64(half.sweeps-1)*c[last] {
			t.Error("the triad did not compute a = b + s·c")
		}
	}
}
