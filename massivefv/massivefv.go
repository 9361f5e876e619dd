// Package massivefv is the public API of the reproduction of "Massively
// Distributed Finite-Volume Flux Computation" (SC 2023): TPFA finite-volume
// flux computation for compressible single-phase Darcy flow, executed on a
// simulated wafer-scale dataflow fabric (the paper's contribution), on a
// simulated GPU through RAJA-style and CUDA-style reference kernels, and on
// a float64 host reference — plus the calibrated performance projections and
// the experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	m, _ := massivefv.BuildMesh(massivefv.Dims{Nx: 16, Ny: 12, Nz: 8})
//	fl := massivefv.DefaultFluid()
//	res, _ := massivefv.RunDataflow(m, fl, 10)
//	fmt.Println(res.Interior) // Table 4 per-cell counts, measured
package massivefv

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/mesh"
	"repro/internal/perfmodel"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/wse"
)

// Core geometry and physics types.
type (
	// Dims is a mesh extent (cells per dimension).
	Dims = mesh.Dims
	// Mesh is the 3D Cartesian mesh with fields and transmissibilities.
	Mesh = mesh.Mesh
	// GeoOptions parameterizes the synthetic geomodels.
	GeoOptions = mesh.GeoOptions
	// Fluid is the compressible single-phase fluid model.
	Fluid = physics.Fluid
	// Result is a dataflow engine run outcome (residual + counters).
	Result = core.Result
	// Options configures the dataflow engines.
	Options = core.Options
	// KernelStats is a GPU launch measurement.
	KernelStats = gpusim.KernelStats
	// ExperimentConfig sizes the functional experiment runs.
	ExperimentConfig = bench.Config
)

// Density models of the fluid (Eq. 5 and its linearization).
const (
	// DensityExponential is the slight-compressibility exponential (Eq. 5),
	// used by the GPU kernels and the default reference.
	DensityExponential = physics.DensityExponential
	// DensityLinear is the linearization the dataflow kernel computes with.
	DensityLinear = physics.DensityLinear
)

// BuildMesh constructs the default CCS geomodel at the given size.
func BuildMesh(d Dims) (*Mesh, error) { return mesh.BuildDefault(d) }

// BuildMeshWith constructs a mesh with explicit geomodel options.
func BuildMeshWith(d Dims, opts GeoOptions) (*Mesh, error) {
	return mesh.Build(d, mesh.DefaultSpacing(), opts)
}

// DefaultGeoOptions returns the storage-site geomodel configuration.
func DefaultGeoOptions() GeoOptions { return mesh.DefaultGeoOptions() }

// DefaultFluid returns supercritical-CO2-like fluid properties.
func DefaultFluid() Fluid { return physics.DefaultFluid() }

// DefaultOptions mirrors the paper's engine configuration.
func DefaultOptions(apps int) Options { return core.DefaultOptions(apps) }

// RunDataflow executes the paper's algorithm on the goroutine-per-PE
// wavelet-fabric simulator (the CS-2 functional twin).
func RunDataflow(m *Mesh, fl Fluid, apps int) (*Result, error) {
	return core.RunFabric(m, fl, core.DefaultOptions(apps))
}

// RunDataflowOpts is RunDataflow with explicit options (ablations etc.).
func RunDataflowOpts(m *Mesh, fl Fluid, opts Options) (*Result, error) {
	return core.RunFabric(m, fl, opts)
}

// RunDataflowFlat executes the identical schedule serially — bit-identical
// residuals, much faster for large functional meshes.
func RunDataflowFlat(m *Mesh, fl Fluid, apps int) (*Result, error) {
	return core.RunFlat(m, fl, core.DefaultOptions(apps))
}

// RunFlatParallel executes the flat schedule on the sharded multi-core
// engine: the PE grid is decomposed into contiguous row bands and each band
// runs on one worker of a pool sized by workers (0 selects
// runtime.NumCPU()). Residuals and counters are bit-identical to
// RunDataflowFlat for every worker count.
func RunFlatParallel(m *Mesh, fl Fluid, apps, workers int) (*Result, error) {
	opts := core.DefaultOptions(apps)
	opts.Workers = workers
	return core.RunFlatParallel(m, fl, opts)
}

// RunFlatParallelOpts is RunFlatParallel with explicit options
// (Options.Workers sizes the pool).
func RunFlatParallelOpts(m *Mesh, fl Fluid, opts Options) (*Result, error) {
	return core.RunFlatParallel(m, fl, opts)
}

// GPUVariant selects a reference kernel.
type GPUVariant = perfmodel.Variant

// Reference kernel variants.
const (
	RAJA = perfmodel.VariantRAJA
	CUDA = perfmodel.VariantCUDA
)

// RunGPU executes a reference kernel on the simulated A100 and returns the
// residual and the measured launch statistics.
func RunGPU(m *Mesh, fl Fluid, apps int, v GPUVariant) ([]float32, *KernelStats, error) {
	dev := gpusim.NewDevice(gpusim.A100())
	fd, err := kernels.Upload(dev, m, fl)
	if err != nil {
		return nil, nil, err
	}
	var st *KernelStats
	if v == CUDA {
		st, err = fd.RunCUDA(apps)
	} else {
		st, err = fd.RunRAJA(apps)
	}
	if err != nil {
		return nil, nil, err
	}
	return fd.Residual(), st, nil
}

// RunReference executes the float64 gold implementation of Algorithm 1.
func RunReference(m *Mesh, fl Fluid, apps int) ([]float64, error) {
	return refflux.Run(m, fl, m.Pressure32(), apps, refflux.Options{})
}

// ProjectCS2 converts a dataflow run's measured per-cell counters into
// projected CS-2 wall-clock at the given geometry.
func ProjectCS2(r *Result, nx, ny, nz, apps int) (*perfmodel.CS2Report, error) {
	pc := r.Interior
	if pc == nil {
		return nil, errNoInterior
	}
	return perfmodel.DefaultCS2().Project(wse.CS2(), perfmodel.CS2Inputs{
		Nx: nx, Ny: ny, Nz: nz, Apps: apps,
		MemAccessesPerCell: pc.MemAccesses,
		FabricWordsPerCell: pc.FabricLoads,
		FlopsPerCell:       pc.Flops,
	})
}

// ProjectA100 converts measured kernel stats into projected A100 wall-clock.
func ProjectA100(st *KernelStats, measuredCells, measuredApps, cells, apps int, v GPUVariant) (*perfmodel.A100Report, error) {
	in := perfmodel.FromKernelStats(st, measuredCells, measuredApps, v)
	in.Cells, in.Apps = cells, apps
	return perfmodel.DefaultA100().Project(gpusim.A100(), in)
}

// Experiment entry points (the paper's tables and figures).
var (
	// RunTable1 regenerates the Table 1 comparison.
	RunTable1 = bench.RunTable1
	// RunTable2 regenerates the weak-scaling table.
	RunTable2 = bench.RunTable2
	// RunTable3 regenerates the comm/compute split.
	RunTable3 = bench.RunTable3
	// RunTable4 regenerates the instruction-count table.
	RunTable4 = bench.RunTable4
	// RunFig8 regenerates both roofline panels.
	RunFig8 = bench.RunFig8
)

type interiorErr struct{}

func (interiorErr) Error() string {
	return "massivefv: mesh has no interior PE (need Nx, Ny ≥ 3) — per-cell counters unavailable"
}

var errNoInterior = interiorErr{}
