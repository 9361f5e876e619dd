package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mesh"
)

func smallCfg() Config {
	return Config{FuncDims: mesh.Dims{Nx: 8, Ny: 6, Nz: 5}, FuncApps: 2}
}

func TestMeasureValidates(t *testing.T) {
	meas, err := Measure(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if meas.DataflowMaxRelErr > 2e-3 {
		t.Errorf("dataflow rel err %g too large", meas.DataflowMaxRelErr)
	}
	if meas.GPUMaxRelErr > 2e-3 {
		t.Errorf("GPU rel err %g too large", meas.GPUMaxRelErr)
	}
	if meas.Dataflow.Interior.FMUL != 60 {
		t.Errorf("interior FMUL = %g", meas.Dataflow.Interior.FMUL)
	}
	if meas.RAJAStats.Flops == 0 || meas.CUDAStats.Flops == 0 {
		t.Error("GPU stats empty")
	}
}

func TestMeasureRejectsThinMesh(t *testing.T) {
	cfg := smallCfg()
	cfg.FuncDims = mesh.Dims{Nx: 2, Ny: 6, Nz: 5}
	if _, err := Measure(cfg); err == nil {
		t.Error("mesh without interior PE accepted")
	}
}

func TestDefaultConfig(t *testing.T) {
	var cfg Config
	got := cfg.withDefaults()
	if got != DefaultConfig() {
		t.Errorf("defaults wrong: %+v", got)
	}
}

func TestTable1ReproducesPaper(t *testing.T) {
	t1, err := RunTable1(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(t1.CS2.TotalTime-PaperTable1.CS2) / PaperTable1.CS2; e > 0.005 {
		t.Errorf("CS-2 %.4f vs paper %.4f", t1.CS2.TotalTime, PaperTable1.CS2)
	}
	if e := math.Abs(t1.RAJA.TotalTime-PaperTable1.RAJA) / PaperTable1.RAJA; e > 0.01 {
		t.Errorf("RAJA %.4f vs paper %.4f", t1.RAJA.TotalTime, PaperTable1.RAJA)
	}
	if e := math.Abs(t1.CUDA.TotalTime-PaperTable1.CUDA) / PaperTable1.CUDA; e > 0.01 {
		t.Errorf("CUDA %.4f vs paper %.4f", t1.CUDA.TotalTime, PaperTable1.CUDA)
	}
	if t1.SpeedupVsRAJA < 195 || t1.SpeedupVsRAJA > 213 {
		t.Errorf("speedup %.1f, paper 204", t1.SpeedupVsRAJA)
	}
	if math.Abs(t1.EnergyRatio-2.2) > 0.15 {
		t.Errorf("energy ratio %.2f, paper 2.2", t1.EnergyRatio)
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	t2, err := RunTable2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != len(PaperTable2) {
		t.Fatalf("%d rows, want %d", len(t2.Rows), len(PaperTable2))
	}
	for i, r := range t2.Rows {
		// CS-2 nearly flat: every model value within 0.5% of the paper row.
		if e := math.Abs(r.ModelCS2Time-r.PaperCS2Time) / r.PaperCS2Time; e > 0.005 {
			t.Errorf("row %d: CS-2 %.4f vs %.4f", i, r.ModelCS2Time, r.PaperCS2Time)
		}
		// A100 linear: within 13% (the paper's own rows deviate from linear).
		if e := math.Abs(r.ModelA100Time-r.PaperA100Time) / r.PaperA100Time; e > 0.13 {
			t.Errorf("row %d: A100 %.4f vs %.4f", i, r.ModelA100Time, r.PaperA100Time)
		}
		if i > 0 {
			if r.ModelCS2Time < t2.Rows[i-1].ModelCS2Time {
				t.Error("CS-2 model time decreased")
			}
			if r.ModelA100Time <= t2.Rows[i-1].ModelA100Time {
				t.Error("A100 model time not increasing")
			}
		}
	}
	// Crossover shape: CS-2 flat (max/min < 1.02), A100 grows ~18.6x.
	cs2Ratio := t2.Rows[len(t2.Rows)-1].ModelCS2Time / t2.Rows[0].ModelCS2Time
	if cs2Ratio > 1.02 {
		t.Errorf("CS-2 weak scaling not flat: ratio %.3f", cs2Ratio)
	}
	a100Ratio := t2.Rows[len(t2.Rows)-1].ModelA100Time / t2.Rows[0].ModelA100Time
	if a100Ratio < 15 {
		t.Errorf("A100 scaling ratio %.1f, want ~18.6", a100Ratio)
	}
}

func TestTable3SplitAndAblation(t *testing.T) {
	t3, err := RunTable3(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(100*t3.Model.CommFraction - PaperTable3.MovementPct); e > 0.5 {
		t.Errorf("movement %% = %.2f, paper %.2f", 100*t3.Model.CommFraction, PaperTable3.MovementPct)
	}
	if t3.CommOnlyFabricWords != t3.FullFabricWords {
		t.Errorf("comm-only moved %d words, full run %d — ablation changed the traffic",
			t3.CommOnlyFabricWords, t3.FullFabricWords)
	}
	if t3.CommOnlyFlops != 0 {
		t.Errorf("comm-only executed %d FLOPs", t3.CommOnlyFlops)
	}
	if e := math.Abs(t3.CommOnlyModel.TotalTime-PaperTable3.Movement) / PaperTable3.Movement; e > 0.02 {
		t.Errorf("comm-only model %.4f vs paper 0.0199", t3.CommOnlyModel.TotalTime)
	}
}

func TestTable4ExactCounts(t *testing.T) {
	t4, err := RunTable4(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range PaperTable4 {
		got, err := t4.MeasuredCount(row.Op)
		if err != nil {
			t.Fatal(err)
		}
		if got != row.Count {
			t.Errorf("%s = %g, paper %g", row.Op, got, row.Count)
		}
	}
	if t4.MeasuredMemAccesses != 406 || t4.MeasuredFabric != 16 || t4.MeasuredFlops != 140 {
		t.Errorf("totals %g/%g/%g, want 406/16/140",
			t4.MeasuredMemAccesses, t4.MeasuredFabric, t4.MeasuredFlops)
	}
	if _, err := t4.MeasuredCount("FDIV"); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestFig8Classifications(t *testing.T) {
	f, err := RunFig8(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if f.CS2MemBound != "bandwidth-bound" {
		t.Errorf("CS-2 memory dot: %s", f.CS2MemBound)
	}
	if f.CS2FabBound != "compute-bound" {
		t.Errorf("CS-2 fabric dot: %s", f.CS2FabBound)
	}
	if f.A100Bound != "bandwidth-bound" {
		t.Errorf("A100 dot: %s", f.A100Bound)
	}
	if math.Abs(f.A100AI-PaperHeadline.A100AI) > 0.05 {
		t.Errorf("A100 AI %.3f, paper %.2f", f.A100AI, PaperHeadline.A100AI)
	}
	if math.Abs(f.A100FracPeak-PaperHeadline.A100PeakFrac) > 0.01 {
		t.Errorf("A100 fraction %.3f, paper %.2f", f.A100FracPeak, PaperHeadline.A100PeakFrac)
	}
	if !strings.Contains(f.CS2Chart, "ceiling") || !strings.Contains(f.A100Chart, "ceiling") {
		t.Error("charts missing ceilings")
	}
}

func TestAblations(t *testing.T) {
	cfg := smallCfg()
	diag, err := RunAblationDiagonals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Slowdown >= 1 {
		t.Errorf("removing diagonals should be faster, got %.2fx", diag.Slowdown)
	}
	vec, err := RunAblationVectorization(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vec.Slowdown <= 1.2 {
		t.Errorf("scalar kernel should be clearly slower, got %.2fx", vec.Slowdown)
	}
	ovl, err := RunAblationOverlap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ovl.Slowdown <= 1 || ovl.Slowdown > 1.5 {
		t.Errorf("overlap-off slowdown %.2fx out of expected band", ovl.Slowdown)
	}
	buf, err := RunAblationBufferReuse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if buf.BaselineModelTime < 246 || buf.VariantModelTime >= 246 {
		t.Errorf("buffer-reuse capacity story broken: reuse max %g, naive max %g",
			buf.BaselineModelTime, buf.VariantModelTime)
	}
	// At the paper's depth the naive layout does not fit a PE: that is the
	// ablation's finding, reported as the words it would need.
	deep, err := RunAblationBufferReuse(Config{FuncDims: mesh.Dims{Nx: 3, Ny: 3, Nz: 246}, FuncApps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := "needs 12796 words/PE at Nz 246, over the CS-2's 12288"; !strings.HasPrefix(deep.VariantHostDetail, want) {
		t.Errorf("Nz = 246 variant %q, want it to start %q", deep.VariantHostDetail, want)
	}
	// The reuse baseline stays an error past its own capacity (Nz 279).
	if _, err := RunAblationBufferReuse(Config{FuncDims: mesh.Dims{Nx: 3, Ny: 3, Nz: 280}, FuncApps: 1}); err == nil {
		t.Error("Nz = 280 accepted: the reuse baseline cannot hold it")
	}
}

func TestRenderers(t *testing.T) {
	cfg := smallCfg()
	var sb strings.Builder
	t1, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Render(&sb); err != nil {
		t.Fatal(err)
	}
	t2, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := t2.Render(&sb); err != nil {
		t.Fatal(err)
	}
	t3, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := t3.Render(&sb); err != nil {
		t.Fatal(err)
	}
	t4, err := RunTable4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := t4.Render(&sb); err != nil {
		t.Fatal(err)
	}
	f8, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f8.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Dataflow/CSL", "GPU/RAJA", "GPU/CUDA",
		"Table 2", "200x200x246",
		"Table 3", "Data movement",
		"Table 4", "FMUL", "FMOV",
		"Figure 8", "roofline",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
