package main

import (
	"math"
	"testing"
)

func TestCompareSets(t *testing.T) {
	def := metricDef{Name: "op_s_p50", Better: "lower", Bound: 0.10}
	c := compareSets("w", def, []float64{1.0, 1.1, 0.9}, []float64{1.05, 1.2, 1.0})
	if c.medA != 1.0 || c.medB != 1.05 || math.Abs(c.diff-0.05) > 1e-12 || !c.ok {
		t.Errorf("within bound: %+v", c)
	}
	// Agreement is two-sided: same code reading 20 % better is as much a
	// failure of the benchmark as reading 20 % worse.
	for _, b := range [][]float64{{1.2, 1.2, 1.2}, {0.8, 0.8, 0.8}} {
		if c := compareSets("w", def, []float64{1, 1, 1}, b); c.ok {
			t.Errorf("sets %v vs 1 agree within 10%%?", b)
		}
	}
	q1, q3 := quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three runs = %g, %g, want the extremes", q1, q3)
	}
}

func TestExactMismatches(t *testing.T) {
	mk := func(iters float64) *report {
		r := newReport("w", false)
		r.set("solver.iterations_per_op", iters)
		r.set("umesh.phase_compute_s", iters/7) // a time may move freely
		return r
	}
	if got := exactMismatches("w", []*report{mk(910), mk(910), mk(910)}); len(got) != 0 {
		t.Errorf("identical counts reported as moved: %v", got)
	}
	if got := exactMismatches("w", []*report{mk(910), mk(910), mk(911)}); len(got) != 1 {
		t.Errorf("a moved iteration count must be reported once, got %v", got)
	}
}
