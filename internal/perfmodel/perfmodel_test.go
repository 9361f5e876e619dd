package perfmodel

import (
	"math"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/wse"
)

// paperCS2Inputs returns the Table 4 per-cell counters at a given geometry.
func paperCS2Inputs(nx, ny, nz, apps int) CS2Inputs {
	return CS2Inputs{
		Nx: nx, Ny: ny, Nz: nz, Apps: apps,
		MemAccessesPerCell: 406,
		FabricWordsPerCell: 16,
		FlopsPerCell:       140,
	}
}

func projectCS2(t *testing.T, in CS2Inputs) *CS2Report {
	t.Helper()
	rep, err := DefaultCS2().Project(wse.CS2(), in)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func TestCS2Table1Time(t *testing.T) {
	// Paper Table 1: 0.0823 s for 1000 applications on 750×994×246.
	rep := projectCS2(t, paperCS2Inputs(750, 994, 246, 1000))
	if e := relErr(rep.TotalTime, 0.0823); e > 0.005 {
		t.Errorf("CS-2 total = %.4f s, paper 0.0823 s (err %.2f%%)", rep.TotalTime, 100*e)
	}
}

func TestCS2Table3Split(t *testing.T) {
	// Paper Table 3: computation 0.0624 s (75.82 %), movement 0.0199 s.
	rep := projectCS2(t, paperCS2Inputs(750, 994, 246, 1000))
	if e := relErr(rep.ComputeTime, 0.0624); e > 0.005 {
		t.Errorf("compute = %.4f s, paper 0.0624 s", rep.ComputeTime)
	}
	if e := relErr(rep.CommTime, 0.0199); e > 0.02 {
		t.Errorf("comm = %.4f s, paper 0.0199 s", rep.CommTime)
	}
	if e := math.Abs(rep.CommFraction - 0.2418); e > 0.005 {
		t.Errorf("comm fraction = %.4f, paper 0.2418", rep.CommFraction)
	}
	// The comm-only ablation must reproduce the movement row alone.
	in := paperCS2Inputs(750, 994, 246, 1000)
	in.CommOnly = true
	co := projectCS2(t, in)
	if e := relErr(co.TotalTime, 0.0199); e > 0.02 {
		t.Errorf("comm-only total = %.4f s, paper 0.0199 s", co.TotalTime)
	}
	if co.ComputeTime != 0 {
		t.Error("comm-only run reports compute time")
	}
}

func TestCS2Table2WeakScaling(t *testing.T) {
	rows := []struct {
		nx, ny     int
		paperTime  float64
		paperGcell float64
	}{
		{200, 200, 0.0813, 121.01},
		{400, 400, 0.0817, 481.43},
		{600, 600, 0.0821, 1078.79},
		{750, 600, 0.0821, 1347.21},
		{750, 800, 0.0822, 1794.01},
		// The paper's last row prints "750 950" but reports 183,393,000
		// cells = 750·994·246 (and Table 1 uses 750×994); we take 994.
		{750, 994, 0.0823, 2227.38},
	}
	var prev float64
	for _, r := range rows {
		rep := projectCS2(t, paperCS2Inputs(r.nx, r.ny, 246, 1000))
		if e := relErr(rep.TotalTime, r.paperTime); e > 0.005 {
			t.Errorf("%dx%d: time %.4f s vs paper %.4f s (err %.2f%%)",
				r.nx, r.ny, rep.TotalTime, r.paperTime, 100*e)
		}
		if e := relErr(rep.ThroughputGcells, r.paperGcell); e > 0.01 {
			t.Errorf("%dx%d: throughput %.2f Gcell/s vs paper %.2f",
				r.nx, r.ny, rep.ThroughputGcells, r.paperGcell)
		}
		if rep.TotalTime < prev {
			t.Errorf("%dx%d: time decreased with fabric size", r.nx, r.ny)
		}
		prev = rep.TotalTime
	}
}

func TestCS2AchievedTflops(t *testing.T) {
	// §7.3: 311.85 TFLOPS on the largest mesh.
	rep := projectCS2(t, paperCS2Inputs(750, 994, 246, 1000))
	if e := relErr(rep.TFlops, 311.85); e > 0.005 {
		t.Errorf("achieved %.2f TFLOPS, paper 311.85", rep.TFlops)
	}
}

func TestCS2Energy(t *testing.T) {
	// §7.2: 23 kW steady state → 13.67 GFLOP/W.
	rep := projectCS2(t, paperCS2Inputs(750, 994, 246, 1000))
	if e := relErr(rep.GflopsPerWatt, 13.67); e > 0.01 {
		t.Errorf("%.2f GFLOP/W, paper 13.67", rep.GflopsPerWatt)
	}
}

func TestCS2OverlapAblation(t *testing.T) {
	p := DefaultCS2()
	in := paperCS2Inputs(750, 994, 246, 1000)
	with, _ := p.Project(wse.CS2(), in)
	p.OverlapComm = false
	without, err := p.Project(wse.CS2(), in)
	if err != nil {
		t.Fatal(err)
	}
	if without.TotalTime <= with.TotalTime {
		t.Error("disabling overlap did not increase time")
	}
	if without.ComputeTime != with.ComputeTime {
		t.Error("overlap setting changed compute time")
	}
}

func TestCS2ScalarIssueAblation(t *testing.T) {
	p := DefaultCS2()
	vec := paperCS2Inputs(200, 200, 246, 1000)
	vec.IssuesPerPEPerApp = 160 // O(10²) vector issues
	scalar := vec
	scalar.IssuesPerPEPerApp = 160 * 246 // per-element issue storm
	rv, _ := p.Project(wse.CS2(), vec)
	rs, err := p.Project(wse.CS2(), scalar)
	if err != nil {
		t.Fatal(err)
	}
	if rs.TotalTime < 1.3*rv.TotalTime {
		t.Errorf("scalar ablation too cheap: %.4f vs %.4f s", rs.TotalTime, rv.TotalTime)
	}
}

func TestCS2Validation(t *testing.T) {
	p := DefaultCS2()
	if _, err := p.Project(wse.CS2(), CS2Inputs{Nx: 0, Ny: 1, Nz: 1, Apps: 1}); err == nil {
		t.Error("zero Nx accepted")
	}
	if _, err := p.Project(wse.CS2(), paperCS2Inputs(751, 994, 246, 1)); err == nil {
		t.Error("oversized fabric accepted")
	}
	bad := p
	bad.MemBandwidth = 0
	if _, err := bad.Project(wse.CS2(), paperCS2Inputs(10, 10, 10, 1)); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func paperA100Inputs(cells, apps int, v Variant) A100Inputs {
	return A100Inputs{
		Cells: cells, Apps: apps,
		WordBytesPerCell: 132,
		FlopsPerCell:     280,
		Variant:          v,
	}
}

func projectA100(t *testing.T, in A100Inputs) *A100Report {
	t.Helper()
	rep, err := DefaultA100().Project(gpusim.A100(), in)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestA100Table1Times(t *testing.T) {
	cells := 750 * 994 * 246
	raja := projectA100(t, paperA100Inputs(cells, 1000, VariantRAJA))
	if e := relErr(raja.TotalTime, 16.8378); e > 0.005 {
		t.Errorf("RAJA = %.4f s, paper 16.8378 (err %.2f%%)", raja.TotalTime, 100*e)
	}
	cuda := projectA100(t, paperA100Inputs(cells, 1000, VariantCUDA))
	if e := relErr(cuda.TotalTime, 14.6573); e > 0.005 {
		t.Errorf("CUDA = %.4f s, paper 14.6573 (err %.2f%%)", cuda.TotalTime, 100*e)
	}
	if cuda.TotalTime >= raja.TotalTime {
		t.Error("CUDA should beat RAJA (Table 1)")
	}
}

func TestA100Table2Scaling(t *testing.T) {
	// The A100 column of Table 2. The paper's middle rows dip below the
	// linear trend (82–90 ps/cell vs 91.8 at the extremes — cache effects
	// on partially-filled waves); our linear model reproduces the extremes
	// exactly and the dip rows within 12 %.
	rows := []struct {
		cells     int
		paperTime float64
		tol       float64
	}{
		{9840000, 0.9040, 0.005},
		{39360000, 3.2649, 0.12},
		{88560000, 7.2440, 0.13},
		{110700000, 9.6825, 0.06},
		{147600000, 13.2407, 0.03},
		{183393000, 16.8378, 0.005},
	}
	var prev float64
	for _, r := range rows {
		rep := projectA100(t, paperA100Inputs(r.cells, 1000, VariantRAJA))
		if e := relErr(rep.TotalTime, r.paperTime); e > r.tol {
			t.Errorf("%d cells: %.4f s vs paper %.4f (err %.1f%% > %.1f%%)",
				r.cells, rep.TotalTime, r.paperTime, 100*e, 100*r.tol)
		}
		if rep.TotalTime <= prev {
			t.Error("A100 time must grow with cells")
		}
		prev = rep.TotalTime
	}
}

func TestHeadlineSpeedup(t *testing.T) {
	// The paper's headline: 204× vs the RAJA reference.
	cells := 750 * 994 * 246
	cs2 := projectCS2(t, paperCS2Inputs(750, 994, 246, 1000))
	raja := projectA100(t, paperA100Inputs(cells, 1000, VariantRAJA))
	s := Speedup(raja.TotalTime, cs2.TotalTime)
	if s < 200 || s > 209 {
		t.Errorf("speedup = %.1fx, paper 204x", s)
	}
}

func TestEnergyRatio(t *testing.T) {
	// §7.2: "2.2x energy efficiency with respect to the reference".
	cells := 750 * 994 * 246
	cs2 := projectCS2(t, paperCS2Inputs(750, 994, 246, 1000))
	raja := projectA100(t, paperA100Inputs(cells, 1000, VariantRAJA))
	r := EnergyEfficiencyRatio(raja.EnergyJ, cs2.EnergyJ)
	if math.Abs(r-2.2) > 0.1 {
		t.Errorf("energy ratio = %.2fx, paper 2.2x", r)
	}
}

func TestA100AIAndFraction(t *testing.T) {
	in := paperA100Inputs(1000000, 10, VariantRAJA)
	rep := projectA100(t, in)
	if math.Abs(rep.AI-2.12) > 0.02 {
		t.Errorf("AI = %.3f, want ~2.12 (paper 2.11)", rep.AI)
	}
	// The sustained bandwidth: one application's words over its kernel time.
	kernel := rep.TotalTime/float64(in.Apps) - DefaultA100().LaunchOverhead
	frac := in.WordBytesPerCell * float64(in.Cells) / kernel / gpusim.A100().ERTBandwidth
	if math.Abs(frac-0.76) > 0.005 {
		t.Errorf("achieved fraction = %.3f, paper 76%%", frac)
	}
}

func TestA100Validation(t *testing.T) {
	p := DefaultA100()
	if _, err := p.Project(gpusim.A100(), A100Inputs{Cells: 0, Apps: 1, Variant: VariantRAJA}); err == nil {
		t.Error("zero cells accepted")
	}
	if _, err := p.Project(gpusim.A100(), paperA100Inputs(100, 1, Variant("opencl"))); err == nil {
		t.Error("unknown variant accepted")
	}
	spec := gpusim.A100()
	spec.ERTBandwidth = 0
	if _, err := p.Project(spec, paperA100Inputs(100, 1, VariantRAJA)); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestFromKernelStats(t *testing.T) {
	st := &gpusim.KernelStats{Flops: 2800, LoadWords: 320, StoreWords: 10}
	in := FromKernelStats(st, 10, 1, VariantCUDA)
	if in.FlopsPerCell != 280 || in.WordBytesPerCell != 132 {
		t.Errorf("derived inputs wrong: %+v", in)
	}
}

func TestSpeedupHelpers(t *testing.T) {
	if Speedup(10, 2) != 5 || Speedup(1, 0) != 0 {
		t.Error("Speedup wrong")
	}
	if EnergyEfficiencyRatio(10, 4) != 2.5 || EnergyEfficiencyRatio(1, 0) != 0 {
		t.Error("EnergyEfficiencyRatio wrong")
	}
}
