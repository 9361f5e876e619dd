package roofline

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/perfmodel"
	"repro/internal/wse"
)

func cs2Platform(t *testing.T) Platform {
	t.Helper()
	p, err := CS2Platform(wse.CS2(), perfmodel.DefaultCS2(), 750, 994)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cs2Dots returns the two Fig. 8 (top) dots at the paper's achieved 311.85
// TFLOPS with the Table 4 intensities.
func cs2Dots() []Dot {
	return []Dot{
		{Name: "FV flux (memory)", Ceiling: "memory", AI: 0.0862, Flops: 311.85e12},
		{Name: "FV flux (fabric)", Ceiling: "fabric", AI: 2.1875, Flops: 311.85e12},
	}
}

func TestCS2PlatformPeak(t *testing.T) {
	p := cs2Platform(t)
	// 750·994 PEs × 2 lanes × 850 MHz ≈ 1.27 PFLOP/s fp32.
	want := 750.0 * 994 * 2 * 850e6
	if p.PeakFlops != want {
		t.Errorf("peak = %g, want %g", p.PeakFlops, want)
	}
}

func TestCS2DotsBoundednessMatchesPaper(t *testing.T) {
	// Fig. 8 top: "bandwidth-bound for memory accesses, while being
	// compute-bound for fabric access".
	p := cs2Platform(t)
	dots := cs2Dots()
	bound, frac, err := p.Classify(dots[0])
	if err != nil {
		t.Fatal(err)
	}
	if bound != BandwidthBound {
		t.Errorf("memory dot is %s, want bandwidth-bound", bound)
	}
	// Achieved fraction of the memory roofline ≈ compute share of runtime
	// (75.8 %), since compute time is the memory-streaming time.
	if math.Abs(frac-0.758) > 0.01 {
		t.Errorf("memory roofline fraction = %.3f, want ≈0.758", frac)
	}
	bound, _, err = p.Classify(dots[1])
	if err != nil {
		t.Fatal(err)
	}
	if bound != ComputeBound {
		t.Errorf("fabric dot is %s, want compute-bound", bound)
	}
}

func TestA100DotMatchesPaper(t *testing.T) {
	// Fig. 8 bottom: memory-bound at ~2.11 FLOPs/B, 76 % of the roofline.
	p := A100Platform(gpusim.A100())
	// Achieved: 280 FLOPs/cell at 91.809 ps/cell.
	achieved := 280.0 / 91.809e-12
	d := Dot{Name: "RAJA flux", Ceiling: "stream", AI: 2.1212, Flops: achieved}
	bound, frac, err := p.Classify(d)
	if err != nil {
		t.Fatal(err)
	}
	if bound != BandwidthBound {
		t.Errorf("A100 dot is %s, want bandwidth-bound (memory-bound)", bound)
	}
	if math.Abs(frac-0.76) > 0.01 {
		t.Errorf("fraction of roofline = %.3f, want 0.76", frac)
	}
}

func TestRidgePoints(t *testing.T) {
	p := A100Platform(gpusim.A100())
	c := p.Ceilings[0]
	ridge := p.RidgePoint(c)
	// 19.5 TF / 1.891 TB/s ≈ 10.3 FLOPs/B: the flux kernel at 2.12 sits
	// left of the ridge → memory-bound.
	if math.Abs(ridge-10.31) > 0.1 {
		t.Errorf("ridge = %.2f, want ≈10.3", ridge)
	}
	if p.RidgePoint(Ceiling{Bandwidth: 0}) != math.Inf(1) {
		t.Error("zero-bandwidth ridge should be +Inf")
	}
}

func TestAttainable(t *testing.T) {
	p := Platform{PeakFlops: 100, Ceilings: []Ceiling{{Name: "m", Bandwidth: 10}}}
	if got := p.Attainable(p.Ceilings[0], 1); got != 10 {
		t.Errorf("attainable = %g, want 10 (bandwidth-limited)", got)
	}
	if got := p.Attainable(p.Ceilings[0], 1000); got != 100 {
		t.Errorf("attainable = %g, want 100 (peak-limited)", got)
	}
}

func TestCeilingByName(t *testing.T) {
	p := cs2Platform(t)
	if _, err := p.CeilingByName("memory"); err != nil {
		t.Error(err)
	}
	if _, err := p.CeilingByName("hbm"); err == nil {
		t.Error("unknown ceiling found")
	}
	if _, _, err := p.Classify(Dot{Ceiling: "hbm"}); err == nil {
		t.Error("classify with unknown ceiling accepted")
	}
}

func TestSortedCeilings(t *testing.T) {
	p := cs2Platform(t)
	s := p.SortedCeilings()
	if len(s) != 2 || s[0].Bandwidth < s[1].Bandwidth {
		t.Errorf("ceilings not sorted: %+v", s)
	}
}

func TestCS2PlatformValidation(t *testing.T) {
	if _, err := CS2Platform(wse.CS2(), perfmodel.DefaultCS2(), 2000, 10); err == nil {
		t.Error("oversized platform accepted")
	}
}

func TestChartRenders(t *testing.T) {
	p := cs2Platform(t)
	out, err := Chart(p, cs2Dots(), DefaultChartConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ceiling memory", "ceiling fabric", "bandwidth-bound", "compute-bound", "1", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < DefaultChartConfig().Height {
		t.Error("chart too short")
	}
}

func TestChartValidation(t *testing.T) {
	p := cs2Platform(t)
	if _, err := Chart(p, nil, ChartConfig{Width: 4, Height: 4, AIMin: 0.1, AIMax: 1, GFMin: 1, GFMax: 10}); err == nil {
		t.Error("tiny chart accepted")
	}
	cfg := DefaultChartConfig()
	cfg.AIMin = -1
	if _, err := Chart(p, nil, cfg); err == nil {
		t.Error("negative AI range accepted")
	}
	cfg = DefaultChartConfig()
	if _, err := Chart(p, []Dot{{Ceiling: "nope", AI: 1, Flops: 1e9}}, cfg); err == nil {
		t.Error("dot with unknown ceiling accepted")
	}
}
