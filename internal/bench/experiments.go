package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/mesh"
	"repro/internal/perfmodel"
	"repro/internal/physics"
	"repro/internal/roofline"
	"repro/internal/wse"
)

// Table1 reproduces the wall-clock comparison of the three implementations.
type Table1 struct {
	Meas *Measurement

	CS2  *perfmodel.CS2Report
	RAJA *perfmodel.A100Report
	CUDA *perfmodel.A100Report

	SpeedupVsRAJA float64 // model (paper: 204×)
	SpeedupVsCUDA float64
	EnergyRatio   float64 // RAJA energy / CS-2 energy (paper: 2.2×)
}

// RunTable1 measures functionally and projects to paper scale.
func RunTable1(cfg Config) (*Table1, error) {
	meas, err := Measure(cfg)
	if err != nil {
		return nil, err
	}
	return table1From(meas)
}

func table1From(meas *Measurement) (*Table1, error) {
	t := &Table1{Meas: meas}
	d, apps := PaperScale.Dims, PaperScale.Apps
	var err error
	t.CS2, err = perfmodel.DefaultCS2().Project(wse.CS2(), meas.cs2InputsAt(d.Nx, d.Ny, d.Nz, apps))
	if err != nil {
		return nil, err
	}
	gp := perfmodel.DefaultA100()
	t.RAJA, err = gp.Project(gpusim.A100(), meas.a100InputsAt(d.Cells(), apps, perfmodel.VariantRAJA))
	if err != nil {
		return nil, err
	}
	t.CUDA, err = gp.Project(gpusim.A100(), meas.a100InputsAt(d.Cells(), apps, perfmodel.VariantCUDA))
	if err != nil {
		return nil, err
	}
	t.SpeedupVsRAJA = perfmodel.Speedup(t.RAJA.TotalTime, t.CS2.TotalTime)
	t.SpeedupVsCUDA = perfmodel.Speedup(t.CUDA.TotalTime, t.CS2.TotalTime)
	t.EnergyRatio = perfmodel.EnergyEfficiencyRatio(t.RAJA.EnergyJ, t.CS2.EnergyJ)
	return t, nil
}

// Table2Row is one weak-scaling configuration, paper vs model.
type Table2Row struct {
	Nx, Ny, Nz int
	Cells      int

	PaperGcells   float64
	PaperCS2Time  float64
	PaperA100Time float64

	ModelGcells   float64
	ModelCS2Time  float64
	ModelA100Time float64
}

// Table2 reproduces the weak-scaling experiment.
type Table2 struct {
	Rows []Table2Row
}

// RunTable2 evaluates the model at each paper configuration.
func RunTable2(cfg Config) (*Table2, error) {
	meas, err := Measure(cfg)
	if err != nil {
		return nil, err
	}
	return table2From(meas)
}

func table2From(meas *Measurement) (*Table2, error) {
	t := &Table2{}
	for _, pr := range PaperTable2 {
		cs2, err := perfmodel.DefaultCS2().Project(wse.CS2(),
			meas.cs2InputsAt(pr.Nx, pr.Ny, pr.Nz, PaperScale.Apps))
		if err != nil {
			return nil, err
		}
		a100, err := perfmodel.DefaultA100().Project(gpusim.A100(),
			meas.a100InputsAt(pr.Cells, PaperScale.Apps, perfmodel.VariantRAJA))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Table2Row{
			Nx: pr.Nx, Ny: pr.Ny, Nz: pr.Nz, Cells: pr.Cells,
			PaperGcells: pr.Gcells, PaperCS2Time: pr.CS2Time, PaperA100Time: pr.A100Time,
			ModelGcells:  cs2.ThroughputGcells,
			ModelCS2Time: cs2.TotalTime, ModelA100Time: a100.TotalTime,
		})
	}
	return t, nil
}

// Table3 reproduces the communication/computation split, including a
// functional comm-only ablation run that checks the communication volume is
// unchanged when the flux math is removed.
type Table3 struct {
	Model         *perfmodel.CS2Report
	CommOnlyModel *perfmodel.CS2Report

	// Functional evidence: fabric words moved with and without compute.
	FullFabricWords     uint64
	CommOnlyFabricWords uint64
	CommOnlyFlops       uint64
}

// RunTable3 runs the comm-only ablation and the model split.
func RunTable3(cfg Config) (*Table3, error) {
	cfg = cfg.withDefaults()
	meas, err := Measure(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table3{}
	d, apps := PaperScale.Dims, PaperScale.Apps
	t.Model, err = perfmodel.DefaultCS2().Project(wse.CS2(), meas.cs2InputsAt(d.Nx, d.Ny, d.Nz, apps))
	if err != nil {
		return nil, err
	}
	in := meas.cs2InputsAt(d.Nx, d.Ny, d.Nz, apps)
	in.CommOnly = true
	t.CommOnlyModel, err = perfmodel.DefaultCS2().Project(wse.CS2(), in)
	if err != nil {
		return nil, err
	}

	// Functional comm-only run (the paper's modified implementation).
	m, err := mesh.BuildDefault(cfg.FuncDims)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(cfg.FuncApps)
	opts.CommOnly = true
	co, err := core.RunFabric(m, physics.DefaultFluid(), opts)
	if err != nil {
		return nil, err
	}
	t.FullFabricWords = meas.Dataflow.Counters.FabricLoads
	t.CommOnlyFabricWords = co.Counters.FabricLoads
	t.CommOnlyFlops = co.Counters.Flops()
	return t, nil
}

// Table4 compares the measured per-interior-cell counts with the paper's.
type Table4 struct {
	Measured core.PerCell

	// Derived totals, paper (summed over PaperTable4's rows) vs measured.
	PaperMemAccesses    float64
	PaperFabricLoads    float64
	PaperFlopsPerCell   float64
	MeasuredMemAccesses float64
	MeasuredFabric      float64
	MeasuredFlops       float64
	AIMemory, AIFabric  float64
}

// RunTable4 measures the instruction table.
func RunTable4(cfg Config) (*Table4, error) {
	meas, err := Measure(cfg)
	if err != nil {
		return nil, err
	}
	pc := *meas.Dataflow.Interior
	t := &Table4{
		Measured:            pc,
		MeasuredMemAccesses: pc.MemAccesses,
		MeasuredFabric:      pc.FabricLoads,
		MeasuredFlops:       pc.Flops,
		AIMemory:            pc.AIMemory(),
		AIFabric:            pc.AIFabric(),
	}
	for _, row := range PaperTable4 {
		t.PaperMemAccesses += row.Count * (row.LoadsPerOp + row.StoresPerOp)
		t.PaperFabricLoads += row.Count * row.FabricPerOp
		t.PaperFlopsPerCell += row.Count * row.FlopsPerOp
	}
	return t, nil
}

// MeasuredCount returns the measured per-cell count for a Table 4 op name.
func (t *Table4) MeasuredCount(op string) (float64, error) {
	switch op {
	case "FMUL":
		return t.Measured.FMUL, nil
	case "FSUB":
		return t.Measured.FSUB, nil
	case "FNEG":
		return t.Measured.FNEG, nil
	case "FADD":
		return t.Measured.FADD, nil
	case "FMA":
		return t.Measured.FMA, nil
	case "FMOV":
		return t.Measured.FMOV, nil
	default:
		return 0, fmt.Errorf("bench: unknown Table 4 op %q", op)
	}
}

// Fig8 reproduces both roofline panels.
type Fig8 struct {
	Meas *Measurement

	CS2Platform  roofline.Platform
	CS2Dots      []roofline.Dot
	CS2Chart     string
	A100Platform roofline.Platform
	A100Dot      roofline.Dot
	A100Chart    string

	A100AI        float64
	A100FracPeak  float64
	CS2MemBound   roofline.Boundedness
	CS2FabBound   roofline.Boundedness
	A100Bound     roofline.Boundedness
	CS2MemFrac    float64
	AchievedFlops float64 // CS-2, FLOP/s
}

// RunFig8 builds the rooflines from measured counters and model projections.
func RunFig8(cfg Config) (*Fig8, error) {
	meas, err := Measure(cfg)
	if err != nil {
		return nil, err
	}
	t1, err := table1From(meas)
	if err != nil {
		return nil, err
	}
	f := &Fig8{Meas: meas}
	d := PaperScale.Dims

	f.CS2Platform, err = roofline.CS2Platform(wse.CS2(), perfmodel.DefaultCS2(), d.Nx, d.Ny)
	if err != nil {
		return nil, err
	}
	pc := meas.Dataflow.Interior
	f.AchievedFlops = t1.CS2.TFlops * 1e12
	f.CS2Dots = []roofline.Dot{
		{Name: "FV flux (memory)", Ceiling: "memory", AI: pc.AIMemory(), Flops: f.AchievedFlops},
		{Name: "FV flux (fabric)", Ceiling: "fabric", AI: pc.AIFabric(), Flops: f.AchievedFlops},
	}
	f.CS2Chart, err = roofline.Chart(f.CS2Platform, f.CS2Dots, roofline.DefaultChartConfig())
	if err != nil {
		return nil, err
	}
	f.CS2MemBound, f.CS2MemFrac, err = f.CS2Platform.Classify(f.CS2Dots[0])
	if err != nil {
		return nil, err
	}
	f.CS2FabBound, _, err = f.CS2Platform.Classify(f.CS2Dots[1])
	if err != nil {
		return nil, err
	}

	f.A100Platform = roofline.A100Platform(gpusim.A100())
	f.A100AI = t1.RAJA.AI
	f.A100Dot = roofline.Dot{
		Name: "RAJA flux", Ceiling: "stream",
		AI:    t1.RAJA.AI,
		Flops: t1.RAJA.AchievedGflops * 1e9,
	}
	f.A100Chart, err = roofline.Chart(f.A100Platform, []roofline.Dot{f.A100Dot}, roofline.DefaultChartConfig())
	if err != nil {
		return nil, err
	}
	f.A100Bound, f.A100FracPeak, err = f.A100Platform.Classify(f.A100Dot)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Ablation compares a design choice on/off, functionally and in the model.
type Ablation struct {
	Name               string
	BaselineModelTime  float64 // s at paper scale
	VariantModelTime   float64
	Slowdown           float64
	BaselineHostDetail string
	VariantHostDetail  string
}

// RunAblationDiagonals measures the §5.2.2 diagonal exchange on/off.
func RunAblationDiagonals(cfg Config) (*Ablation, error) {
	cfg = cfg.withDefaults()
	m, err := mesh.BuildDefault(cfg.FuncDims)
	if err != nil {
		return nil, err
	}
	fl := physics.DefaultFluid()
	with, err := core.RunFabric(m, fl, core.DefaultOptions(cfg.FuncApps))
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(cfg.FuncApps)
	opts.Diagonals = false
	without, err := core.RunFabric(m, fl, opts)
	if err != nil {
		return nil, err
	}
	d, apps := PaperScale.Dims, PaperScale.Apps
	proj := func(r *core.Result) (*perfmodel.CS2Report, error) {
		pc := r.Interior
		return perfmodel.DefaultCS2().Project(wse.CS2(), perfmodel.CS2Inputs{
			Nx: d.Nx, Ny: d.Ny, Nz: d.Nz, Apps: apps,
			MemAccessesPerCell: pc.MemAccesses,
			FabricWordsPerCell: pc.FabricLoads,
			FlopsPerCell:       pc.Flops,
		})
	}
	base, err := proj(with)
	if err != nil {
		return nil, err
	}
	variant, err := proj(without)
	if err != nil {
		return nil, err
	}
	return &Ablation{
		Name:              "diagonal exchange off (cardinal 6-face TPFA)",
		BaselineModelTime: base.TotalTime,
		VariantModelTime:  variant.TotalTime,
		Slowdown:          variant.TotalTime / base.TotalTime,
		BaselineHostDetail: fmt.Sprintf("10 faces, %.0f FMOV/cell, %.0f FLOPs/cell",
			with.Interior.FMOV, with.Interior.Flops),
		VariantHostDetail: fmt.Sprintf("6 faces, %.0f FMOV/cell, %.0f FLOPs/cell",
			without.Interior.FMOV, without.Interior.Flops),
	}, nil
}

// RunAblationVectorization measures §5.3.3's DSD vectorization off.
func RunAblationVectorization(cfg Config) (*Ablation, error) {
	cfg = cfg.withDefaults()
	fl := physics.DefaultFluid()
	m, err := mesh.BuildDefault(cfg.FuncDims)
	if err != nil {
		return nil, err
	}
	vec, err := core.RunFabric(m, fl, core.DefaultOptions(cfg.FuncApps))
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(cfg.FuncApps)
	opts.Vectorized = false
	sc, err := core.RunFabric(m, fl, opts)
	if err != nil {
		return nil, err
	}
	d, apps := PaperScale.Dims, PaperScale.Apps
	pes := cfg.FuncDims.Nx * cfg.FuncDims.Ny
	issuesPerPEApp := func(r *core.Result) float64 {
		return float64(r.Counters.Issues) / float64(pes) / float64(cfg.FuncApps)
	}
	// Scale the per-application issue count from the functional Nz to the
	// paper's Nz (scalar issues grow linearly with column depth).
	scaleNz := float64(d.Nz) / float64(cfg.FuncDims.Nz)
	proj := func(r *core.Result, scaleIssues bool) (*perfmodel.CS2Report, error) {
		pc := r.Interior
		in := perfmodel.CS2Inputs{
			Nx: d.Nx, Ny: d.Ny, Nz: d.Nz, Apps: apps,
			MemAccessesPerCell: pc.MemAccesses,
			FabricWordsPerCell: pc.FabricLoads,
			FlopsPerCell:       pc.Flops,
			IssuesPerPEPerApp:  issuesPerPEApp(r),
		}
		if scaleIssues {
			in.IssuesPerPEPerApp *= scaleNz
		}
		return perfmodel.DefaultCS2().Project(wse.CS2(), in)
	}
	base, err := proj(vec, false)
	if err != nil {
		return nil, err
	}
	variant, err := proj(sc, true)
	if err != nil {
		return nil, err
	}
	return &Ablation{
		Name:              "scalar (non-vectorized) kernel",
		BaselineModelTime: base.TotalTime,
		VariantModelTime:  variant.TotalTime,
		Slowdown:          variant.TotalTime / base.TotalTime,
		BaselineHostDetail: fmt.Sprintf("%.0f issues/PE/app (DSD vectors)",
			issuesPerPEApp(vec)),
		VariantHostDetail: fmt.Sprintf("%.0f issues/PE/app (per-element)",
			issuesPerPEApp(sc)*scaleNz),
	}, nil
}

// RunAblationOverlap measures §5.3.2's async overlap off (model-level).
func RunAblationOverlap(cfg Config) (*Ablation, error) {
	meas, err := Measure(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	d, apps := PaperScale.Dims, PaperScale.Apps
	in := meas.cs2InputsAt(d.Nx, d.Ny, d.Nz, apps)
	p := perfmodel.DefaultCS2()
	base, err := p.Project(wse.CS2(), in)
	if err != nil {
		return nil, err
	}
	p.OverlapComm = false
	variant, err := p.Project(wse.CS2(), in)
	if err != nil {
		return nil, err
	}
	return &Ablation{
		Name:               "asynchronous comm/compute overlap off",
		BaselineModelTime:  base.TotalTime,
		VariantModelTime:   variant.TotalTime,
		Slowdown:           variant.TotalTime / base.TotalTime,
		BaselineHostDetail: fmt.Sprintf("exposed comm %.4f s", base.CommTime),
		VariantHostDetail:  fmt.Sprintf("exposed comm %.4f s", variant.CommTime),
	}, nil
}

// RunAblationBufferReuse measures §5.3.1's buffer reuse off: the footprint
// decides the largest representable Nz. At a functional Nz the naive layout
// cannot hold, that is the finding, not an error: the variant reports the
// words per PE it would need; the reuse baseline must fit, as every other
// experiment's run must.
func RunAblationBufferReuse(cfg Config) (*Ablation, error) {
	cfg = cfg.withDefaults()
	fl := physics.DefaultFluid()
	m, err := mesh.BuildDefault(cfg.FuncDims)
	if err != nil {
		return nil, err
	}
	reuse, err := core.RunFabric(m, fl, core.DefaultOptions(cfg.FuncApps))
	if err != nil {
		return nil, err
	}
	spec := wse.CS2()
	maxReuse := spec.MaxNz(core.WordsPerZ(true), core.FixedWords)
	maxNaive := spec.MaxNz(core.WordsPerZ(false), core.FixedWords)
	nz := cfg.FuncDims.Nz
	naiveWords := core.WordsPerZ(false)*nz + core.FixedWords
	variant := fmt.Sprintf("needs %d words/PE at Nz %d, over the CS-2's %d → max Nz %d (cannot hold 246)",
		naiveWords, nz, spec.MemWords(), maxNaive)
	if nz <= maxNaive {
		opts := core.DefaultOptions(cfg.FuncApps)
		opts.BufferReuse = false
		naive, err := core.RunFabric(m, fl, opts)
		if err != nil {
			return nil, err
		}
		naiveWords = naive.MemStats.HighWaterWords
		variant = fmt.Sprintf("high water %d words/PE → max Nz %d (cannot hold 246)", naiveWords, maxNaive)
	}
	return &Ablation{
		Name:              "buffer reuse off (naive intermediates)",
		BaselineModelTime: float64(maxReuse),
		VariantModelTime:  float64(maxNaive),
		Slowdown:          float64(reuse.MemStats.HighWaterWords) / float64(naiveWords),
		BaselineHostDetail: fmt.Sprintf("high water %d words/PE → max Nz %d (holds the paper's 246)",
			reuse.MemStats.HighWaterWords, maxReuse),
		VariantHostDetail: variant,
	}, nil
}
