package repro_test

// One benchmark per table and figure of the paper's evaluation (§7), plus
// one per ablation. Each benchmark executes the functional simulators (the
// real measured work) and reports the calibrated hardware projection through
// b.ReportMetric, so `go test -bench` regenerates the paper's numbers:
//
//	paper-s      projected seconds at paper scale (compare to the table)
//	model-*      other projected quantities (Gcell/s, TFLOPS, ...)
//
// Host ns/op measures the simulators themselves, not the hardware.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/mesh"
	"repro/internal/perfmodel"
	"repro/internal/physics"
	"repro/internal/wse"
)

func benchCfg() bench.Config {
	return bench.Config{FuncDims: mesh.Dims{Nx: 10, Ny: 8, Nz: 6}, FuncApps: 2}
}

func buildBenchMesh(b *testing.B, d mesh.Dims) *mesh.Mesh {
	b.Helper()
	m, err := mesh.BuildDefault(d)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkTable1_DataflowCSL measures the fabric engine and projects the
// Dataflow/CSL row of Table 1 (paper: 0.0823 s).
func BenchmarkTable1_DataflowCSL(b *testing.B) {
	cfg := benchCfg()
	m := buildBenchMesh(b, cfg.FuncDims)
	fl := physics.DefaultFluid()
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.RunFabric(m, fl, core.DefaultOptions(cfg.FuncApps))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	pc := res.Interior
	rep, err := perfmodel.DefaultCS2().Project(wse.CS2(), perfmodel.CS2Inputs{
		Nx: 750, Ny: 994, Nz: 246, Apps: 1000,
		MemAccessesPerCell: pc.MemAccesses,
		FabricWordsPerCell: pc.FabricLoads,
		FlopsPerCell:       pc.Flops,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.TotalTime, "paper-s")
	b.ReportMetric(rep.TFlops, "model-TFLOPS")
	b.ReportMetric(float64(res.CellsUpdated())*float64(b.N)/b.Elapsed().Seconds(), "hostcells/s")
}

// BenchmarkTable1_GPU times the one GPU reference kernel — the mesh built and
// uploaded outside the timer — and projects both builds' Table 1 rows from
// its launch: paper-s-raja (paper: 16.8378 s) and paper-s-cuda (paper:
// 14.6573 s), which differ only in the achieved fraction of peak.
func BenchmarkTable1_GPU(b *testing.B) {
	cfg := benchCfg()
	m := buildBenchMesh(b, cfg.FuncDims)
	fl := physics.DefaultFluid()
	var st *gpusim.KernelStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fd, err := kernels.Upload(gpusim.NewDevice(gpusim.A100()), m, fl)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if st, err = fd.Run(cfg.FuncApps); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, row := range []struct {
		v    perfmodel.Variant
		unit string
	}{{perfmodel.VariantRAJA, "paper-s-raja"}, {perfmodel.VariantCUDA, "paper-s-cuda"}} {
		in := perfmodel.FromKernelStats(st, cfg.FuncDims.Cells(), cfg.FuncApps, row.v)
		in.Cells, in.Apps = 750*994*246, 1000
		rep, err := perfmodel.DefaultA100().Project(gpusim.A100(), in)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.TotalTime, row.unit)
		b.ReportMetric(rep.AI, "model-AI") // the same launch, so the same for both
	}
}

// BenchmarkTable2_WeakScaling runs one sub-benchmark per Table 2 row: the
// functional mesh grows in X-Y with fixed per-PE work (true weak scaling of
// the simulator) and the projection reports the paper-scale time.
func BenchmarkTable2_WeakScaling(b *testing.B) {
	rows := []struct {
		name   string
		fx, fy int // functional fabric (scaled-down proportions)
		px, py int // paper fabric
	}{
		{"200x200", 6, 6, 200, 200},
		{"400x400", 12, 12, 400, 400},
		{"600x600", 18, 18, 600, 600},
		{"750x600", 22, 18, 750, 600},
		{"750x800", 22, 24, 750, 800},
		{"750x994", 22, 30, 750, 994},
	}
	fl := physics.DefaultFluid()
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			m := buildBenchMesh(b, mesh.Dims{Nx: r.fx, Ny: r.fy, Nz: 6})
			var res *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.RunFabric(m, fl, core.DefaultOptions(1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			pc := res.Interior
			rep, err := perfmodel.DefaultCS2().Project(wse.CS2(), perfmodel.CS2Inputs{
				Nx: r.px, Ny: r.py, Nz: 246, Apps: 1000,
				MemAccessesPerCell: pc.MemAccesses,
				FabricWordsPerCell: pc.FabricLoads,
				FlopsPerCell:       pc.Flops,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rep.TotalTime, "paper-s")
			b.ReportMetric(rep.ThroughputGcells, "model-Gcell/s")
		})
	}
}

// BenchmarkTable3_CommOnly measures the communication-only ablation (paper:
// movement 0.0199 s, 24.18 %).
func BenchmarkTable3_CommOnly(b *testing.B) {
	cfg := benchCfg()
	m := buildBenchMesh(b, cfg.FuncDims)
	fl := physics.DefaultFluid()
	opts := core.DefaultOptions(cfg.FuncApps)
	opts.CommOnly = true
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.RunFabric(m, fl, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rep, err := perfmodel.DefaultCS2().Project(wse.CS2(), perfmodel.CS2Inputs{
		Nx: 750, Ny: 994, Nz: 246, Apps: 1000,
		MemAccessesPerCell: 406,
		FabricWordsPerCell: res.Interior.FabricLoads,
		FlopsPerCell:       140,
		CommOnly:           true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.TotalTime, "paper-s")
	b.ReportMetric(100*rep.CommFraction, "model-comm-pct")
}

// BenchmarkTable4_InstructionCounts measures the counter collection that
// regenerates Table 4 and asserts exactness.
func BenchmarkTable4_InstructionCounts(b *testing.B) {
	cfg := benchCfg()
	m := buildBenchMesh(b, cfg.FuncDims)
	fl := physics.DefaultFluid()
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.RunFabric(m, fl, core.DefaultOptions(cfg.FuncApps))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	pc := res.Interior
	if pc.FMUL != 60 || pc.FSUB != 40 || pc.FNEG != 10 || pc.FADD != 10 ||
		pc.FMA != 10 || pc.FMOV != 16 || pc.MemAccesses != 406 || pc.FabricLoads != 16 {
		b.Fatalf("Table 4 counts drifted: %s", pc)
	}
	b.ReportMetric(pc.Flops, "flops/cell")
	b.ReportMetric(pc.AIMemory(), "AI-mem")
	b.ReportMetric(pc.AIFabric(), "AI-fabric")
}

// BenchmarkFig8_Roofline regenerates both roofline panels.
func BenchmarkFig8_Roofline(b *testing.B) {
	cfg := benchCfg()
	var fig *bench.Fig8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = bench.RunFig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(fig.A100AI, "A100-AI")
	b.ReportMetric(100*fig.A100FracPeak, "A100-roofline-pct")
	b.ReportMetric(fig.AchievedFlops/1e12, "CS2-TFLOPS")
}

// Ablation benchmarks (internal/bench's ablations; docs/benchmarks.md).

// BenchmarkAblation_DiagonalExchange compares the 10-face schedule with the
// textbook 6-face TPFA (§5.2.2 is optional for the scheme).
func BenchmarkAblation_DiagonalExchange(b *testing.B) {
	var a *bench.Ablation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		a, err = bench.RunAblationDiagonals(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(a.Slowdown, "time-ratio")
}

// BenchmarkAblation_Vectorization compares DSD vectors with per-element
// scalar issue (§5.3.3).
func BenchmarkAblation_Vectorization(b *testing.B) {
	var a *bench.Ablation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		a, err = bench.RunAblationVectorization(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(a.Slowdown, "slowdown")
}

// BenchmarkAblation_Overlap compares async comm/compute overlap on/off
// (§5.3.2).
func BenchmarkAblation_Overlap(b *testing.B) {
	var a *bench.Ablation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		a, err = bench.RunAblationOverlap(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(a.Slowdown, "slowdown")
}

// BenchmarkAblation_BufferReuse compares the §5.3.1 buffer discipline's
// per-PE footprint and the resulting maximum column depth.
func BenchmarkAblation_BufferReuse(b *testing.B) {
	var a *bench.Ablation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		a, err = bench.RunAblationBufferReuse(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(a.BaselineModelTime, "maxNz-reuse")
	b.ReportMetric(a.VariantModelTime, "maxNz-naive")
}
