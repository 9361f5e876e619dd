package massivefv

// Facade entry points for the extension subsystems: the §8 matrix-free
// Krylov path, the transient implicit simulator, the §8 TTI wave
// propagation, and the §9 unstructured-mesh support.

import (
	"repro/internal/refflux"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/umesh"
	"repro/internal/wave"
)

// Solver types (§8: matrix-free Krylov over the flux operator).
type (
	// PressureSystem is a frozen-coefficient backward-Euler pressure step.
	PressureSystem = solver.PressureSystem
	// SolverOptions configures the Krylov iteration.
	SolverOptions = solver.Options
	// SolverStats reports convergence.
	SolverStats = solver.Stats
	// PrecondKind names a rung of the preconditioner ladder; set it on
	// SolverOptions.PrecondKind to select the rung (SolveUnstructured and
	// the transient runners supply the diagonal themselves).
	PrecondKind = solver.PrecondKind
)

// The preconditioner ladder, weakest to strongest by CG iteration count.
// Jacobi works everywhere; the operator-built rungs (SSOR, Chebyshev, AMG)
// need the unstructured operators — serial or canonically RCB-partitioned —
// and reproduce the serial trajectory bit-for-bit on every part count.
const (
	PrecondJacobi    = solver.PrecondJacobi
	PrecondSSOR      = solver.PrecondSSOR
	PrecondChebyshev = solver.PrecondChebyshev
	PrecondAMG       = solver.PrecondAMG
)

// NewPressureSystem freezes one implicit step of Eq. (2).
func NewPressureSystem(m *Mesh, fl Fluid, dt float64) (*PressureSystem, error) {
	return solver.NewPressureSystem(m, fl, dt, refflux.FacesAll)
}

// NewDataflowOperator wraps the dataflow flux kernel as the system's linear
// operator (§8). It holds a compiled engine from its first Apply on; Close
// releases it.
func NewDataflowOperator(sys *PressureSystem, fl Fluid) *solver.DataflowOperator {
	return solver.NewDataflowOperator(sys, fl)
}

// SolveCG runs Jacobi-preconditioned conjugate gradients on the system
// through the dataflow operator and returns the pressure update.
func SolveCG(sys *PressureSystem, fl Fluid, b []float64, opts SolverOptions) ([]float64, *SolverStats, error) {
	op := solver.NewDataflowOperator(sys, fl)
	defer op.Close()
	opts.PrecondDiag = sys.Diagonal()
	x := make([]float64, op.Size())
	st, err := solver.CG(op, x, b, opts)
	if err != nil {
		return nil, st, err
	}
	return x, st, nil
}

// Transient simulation (the §2 workflow).
type (
	// TransientOptions configures the implicit time stepping.
	TransientOptions = sim.Options
	// TransientResult carries per-step reports and the final field.
	TransientResult = sim.Result
	// Well is a constant-rate column source/sink.
	Well = sim.Well
)

// RunTransient advances the pressure field through implicit steps.
func RunTransient(m *Mesh, fl Fluid, opts TransientOptions) (*TransientResult, error) {
	return sim.RunTransient(m, fl, opts)
}

// Wave propagation (§8's diagonal-exchange application).
type (
	// WaveMedium is a 2D TTI velocity model.
	WaveMedium = wave.Medium
	// WaveOptions configures a leapfrog run.
	WaveOptions = wave.Options
	// WaveResult is the final wavefield and stability history.
	WaveResult = wave.Result
	// WaveSource is a Ricker point source.
	WaveSource = wave.Source
)

// NewWaveMedium builds a constant tilted transversely isotropic medium.
func NewWaveMedium(nx, ny int, dx, vFast, vSlow, theta float64) (*WaveMedium, error) {
	return wave.NewUniformMedium(nx, ny, dx, vFast, vSlow, theta)
}

// SimulateWave runs the TTI leapfrog (host or fabric engine per options).
func SimulateWave(m *WaveMedium, opts WaveOptions) (*WaveResult, error) {
	return wave.Simulate(m, opts)
}

// Unstructured meshes (§9).
type (
	// UMesh is a general unstructured finite-volume mesh.
	UMesh = umesh.Mesh
	// UPartition is an RCB decomposition with halo plans.
	UPartition = umesh.Partition
	// UEngineOptions configures the persistent partitioned engine.
	UEngineOptions = umesh.EngineOptions
	// UnstructuredResult summarizes a partitioned multi-application run
	// (residual, communication counters, wall-clock).
	UnstructuredResult = umesh.PartResult
)

// UnstructuredOptions configures RunUnstructured: the engine options plus
// the initial pressure field.
type UnstructuredOptions struct {
	UEngineOptions
	// Pressure is the initial field (one value per cell); nil selects a
	// uniform 20 MPa field, which the shared perturbation schedule then
	// varies between applications.
	Pressure []float32
}

// RunUnstructured executes a multi-application batch of Algorithm 1 on the
// persistent partitioned unstructured engine (umesh.PartEngine on the shared
// internal/exec shard pool): compact O(owned+halo) per-part state,
// precompiled allocation-free halo exchange, and communication counters. The
// residual is bit-identical to the serial cell-based sweep.
func RunUnstructured(u *UMesh, part *UPartition, fl Fluid, opts UnstructuredOptions) (*UnstructuredResult, error) {
	p := opts.Pressure
	if p == nil {
		p = make([]float32, u.NumCells)
		for i := range p {
			p[i] = 2e7
		}
	}
	e, err := umesh.NewPartEngine(u, part, fl, opts.UEngineOptions)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Run(p)
}

// Unstructured implicit solves (§8 on the §9 runtime).
type (
	// UPressureSystem is a frozen-coefficient backward-Euler pressure step
	// over an unstructured mesh.
	UPressureSystem = umesh.USystem
	// UWell is a constant-rate mass source/sink at one cell.
	UWell = umesh.Well
	// UTransientOptions configures the partitioned implicit time stepping.
	UTransientOptions = umesh.TransientOptions
	// UTransientResult carries per-step reports (with residual histories),
	// the final field and the solve's halo traffic.
	UTransientResult = umesh.TransientResult
)

// SolveUnstructured solves one implicit pressure step A·δp = b on the
// unstructured mesh with Jacobi-preconditioned CG. Partitioned solves run
// part-resident: the Krylov working set lives in each part's compact layout
// for the whole solve (one scatter in, one gather out) with fused
// exchange-overlapped operator applications. A nil partition selects the
// serial float64 reference operator; partitioned solves are bit-identical
// to it for every part count.
func SolveUnstructured(u *UMesh, part *UPartition, fl Fluid, dt float64, b []float64, opts SolverOptions) ([]float64, *SolverStats, error) {
	sys, err := umesh.NewUSystem(u, fl, dt, 0)
	if err != nil {
		return nil, nil, err
	}
	space, closeOp, err := umesh.NewSystemSpace(part, sys, 0)
	if err != nil {
		return nil, nil, err
	}
	defer closeOp()
	opts.PrecondDiag = sys.Diagonal()
	cg, err := solver.CompileCG(space, opts)
	if err != nil {
		return nil, nil, err
	}
	x := make([]float64, space.Size())
	st, err := cg.Solve(x, b, opts.Cancel)
	if err != nil {
		return nil, st, err
	}
	return x, st, nil
}

// RunTransientUnstructured advances an unstructured pressure field through
// implicit backward-Euler steps on the partitioned runtime, one
// preconditioned Krylov solve per step. A nil partition runs the serial
// reference path.
func RunTransientUnstructured(u *UMesh, part *UPartition, fl Fluid, opts UTransientOptions) (*UTransientResult, error) {
	return umesh.RunTransientPartitioned(u, part, fl, opts)
}

// NewRadialMesh builds a well-centered refined radial mesh.
func NewRadialMesh(opts umesh.RadialOptions) (*UMesh, error) {
	return umesh.NewRadialMesh(opts)
}

// DefaultRadialOptions returns the standard near-well grid.
func DefaultRadialOptions() umesh.RadialOptions { return umesh.DefaultRadialOptions() }

// PartitionRCB decomposes an unstructured mesh into 2^levels parts.
func PartitionRCB(u *UMesh, levels int) (*UPartition, error) { return umesh.RCB(u, levels) }

// Resident-engine serving (the fvserve daemon's library surface).
type (
	// UTransientSolver is the compile-once / solve-many form of the
	// partitioned implicit path: plan compilation happens in
	// NewTransientSolver, every Solve re-aims the resident engine at a new
	// request without recompiling.
	UTransientSolver = umesh.TransientSolver
	// ServeOptions configures a resident-engine Server.
	ServeOptions = serve.Options
	// ServeScenario selects a compiled-engine configuration (the scenario
	// cache key's preimage).
	ServeScenario = serve.Scenario
	// ServeRequest is the POST /v1/solve body.
	ServeRequest = serve.SolveRequest
	// ServeResponse is the POST /v1/solve response body.
	ServeResponse = serve.SolveResponse
	// ServeStats is the serving layer's counter snapshot.
	ServeStats = serve.StatsSnapshot
)

// NewTransientSolver compiles a resident transient solver: the engine
// fvserve keeps warm behind its scenario cache. A nil partition compiles the
// serial reference path.
func NewTransientSolver(u *UMesh, part *UPartition, fl Fluid, opts UTransientOptions) (*UTransientSolver, error) {
	return umesh.NewTransientSolver(u, part, fl, opts)
}

// NewServer builds the resident-engine serving layer: a scenario cache of
// compiled engines behind admission control; each scenario's lowest idle
// engine pulls its next batch from the scenario's backlog. Mount Handler on
// an http.Server and Drain on shutdown.
func NewServer(opts ServeOptions) *serve.Server { return serve.New(opts) }
