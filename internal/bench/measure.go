package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/mesh"
	"repro/internal/perfmodel"
	"repro/internal/physics"
	"repro/internal/refflux"
)

// Config sizes the functional measurement runs that feed the projections.
// The counters the model consumes are per-cell and deterministic, so a
// reduced functional mesh measures them exactly. Every dataflow run is
// core.RunFabric, the functional twin of the paper's CSL implementation,
// which also runs its modified builds (comm-only, scalar kernel).
type Config struct {
	// FuncDims is the functional mesh (fabric engine + GPU simulator).
	// Needs Nx, Ny ≥ 3 so an interior PE exists.
	FuncDims mesh.Dims
	// FuncApps is the functional application count.
	FuncApps int
}

// DefaultConfig returns the standard functional sizing.
func DefaultConfig() Config {
	return Config{FuncDims: mesh.Dims{Nx: 12, Ny: 10, Nz: 8}, FuncApps: 2}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.FuncDims == (mesh.Dims{}) {
		c.FuncDims = d.FuncDims
	}
	if c.FuncApps == 0 {
		c.FuncApps = d.FuncApps
	}
	return c
}

// Measurement is the outcome of the functional runs: counters for the model
// plus numerical-validation evidence.
type Measurement struct {
	Dims mesh.Dims
	Apps int

	// Dataflow side.
	Dataflow *core.Result
	// DataflowMaxRelErr is the residual's worst relative error against the
	// float64 reference (linearized density), scaled by the max residual.
	DataflowMaxRelErr float64

	// GPU side.
	RAJAStats *gpusim.KernelStats
	CUDAStats *gpusim.KernelStats
	// GPUMaxRelErr is the RAJA residual's error against the float64
	// exponential-density reference.
	GPUMaxRelErr float64
	// Occupancy is the modeled occupancy of the 16×8×8 launch.
	Occupancy gpusim.Occupancy
}

// Measure runs the functional experiments once and validates them.
func Measure(cfg Config) (*Measurement, error) {
	cfg = cfg.withDefaults()
	if cfg.FuncDims.Nx < 3 || cfg.FuncDims.Ny < 3 {
		return nil, fmt.Errorf("bench: functional mesh %v needs Nx,Ny ≥ 3 for an interior PE", cfg.FuncDims)
	}
	m, err := mesh.BuildDefault(cfg.FuncDims)
	if err != nil {
		return nil, err
	}
	fl := physics.DefaultFluid()

	meas := &Measurement{Dims: cfg.FuncDims, Apps: cfg.FuncApps}

	// Dataflow functional run.
	meas.Dataflow, err = core.RunFabric(m, fl, core.DefaultOptions(cfg.FuncApps))
	if err != nil {
		return nil, fmt.Errorf("bench: dataflow run: %w", err)
	}
	if meas.Dataflow.Interior == nil {
		return nil, fmt.Errorf("bench: no interior PE measured on %v", cfg.FuncDims)
	}
	// Validate against the float64 reference with the same density model.
	p := m.Pressure32()
	ref, err := refflux.Run(m, fl.WithModel(physics.DensityLinear), p, cfg.FuncApps, refflux.Options{})
	if err != nil {
		return nil, err
	}
	meas.DataflowMaxRelErr = maxRelErr(meas.Dataflow.Residual, ref)

	// GPU functional runs (fresh meshes: pressure is perturbed in place).
	rajaRes, rajaStats, err := runGPU(cfg, fl, perfmodel.VariantRAJA)
	if err != nil {
		return nil, err
	}
	_, cudaStats, err := runGPU(cfg, fl, perfmodel.VariantCUDA)
	if err != nil {
		return nil, err
	}
	meas.RAJAStats, meas.CUDAStats = rajaStats, cudaStats
	m2, err := mesh.BuildDefault(cfg.FuncDims)
	if err != nil {
		return nil, err
	}
	p2 := m2.Pressure32()
	refExp, err := refflux.Run(m2, fl, p2, cfg.FuncApps, refflux.Options{})
	if err != nil {
		return nil, err
	}
	meas.GPUMaxRelErr = maxRelErr(rajaRes, refExp)
	meas.Occupancy = gpusim.NewDevice(gpusim.A100()).OccupancyFor(gpusim.Dim3{X: 16, Y: 8, Z: 8})
	return meas, nil
}

func runGPU(cfg Config, fl physics.Fluid, v perfmodel.Variant) ([]float32, *gpusim.KernelStats, error) {
	m, err := mesh.BuildDefault(cfg.FuncDims)
	if err != nil {
		return nil, nil, err
	}
	dev := gpusim.NewDevice(gpusim.A100())
	fd, err := kernels.Upload(dev, m, fl)
	if err != nil {
		return nil, nil, err
	}
	var st *gpusim.KernelStats
	if v == perfmodel.VariantCUDA {
		st, err = fd.RunCUDA(cfg.FuncApps)
	} else {
		st, err = fd.RunRAJA(cfg.FuncApps)
	}
	if err != nil {
		return nil, nil, err
	}
	return fd.Residual(), st, nil
}

func maxRelErr(got []float32, want []float64) float64 {
	scale := 0.0
	for _, w := range want {
		if a := math.Abs(w); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range got {
		if d := math.Abs(float64(got[i])-want[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// cs2InputsAt assembles the model inputs for a mesh size from the measured
// per-cell counters.
func (meas *Measurement) cs2InputsAt(nx, ny, nz, apps int) perfmodel.CS2Inputs {
	pc := meas.Dataflow.Interior
	return perfmodel.CS2Inputs{
		Nx: nx, Ny: ny, Nz: nz, Apps: apps,
		MemAccessesPerCell: pc.MemAccesses,
		FabricWordsPerCell: pc.FabricLoads,
		FlopsPerCell:       pc.Flops,
	}
}

// a100InputsAt assembles the GPU model inputs for a cell count.
func (meas *Measurement) a100InputsAt(cells, apps int, v perfmodel.Variant) perfmodel.A100Inputs {
	st := meas.RAJAStats
	if v == perfmodel.VariantCUDA {
		st = meas.CUDAStats
	}
	funcCells := meas.Dims.Cells()
	den := float64(funcCells) * float64(meas.Apps)
	return perfmodel.A100Inputs{
		Cells: cells, Apps: apps,
		WordBytesPerCell: float64(st.Bytes()) / den,
		FlopsPerCell:     float64(st.Flops) / den,
		Variant:          v,
	}
}
