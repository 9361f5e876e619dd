package umesh

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/physics"
	"repro/internal/solver"
)

// This file is the transient backward-Euler loop: the §2 simulator workflow,
// one preconditioned Krylov solve per time step with frozen coefficients. It
// is the only step loop in the repository. Unstructured meshes run it on the
// serial reference or the partitioned runtime (NewTransientSolver); the
// structured simulator (internal/sim) converts its mesh with FromStructured,
// turns each column well into one cell well per layer, and runs it too —
// through NewTransientSolver on the host path, through CompileTransient with
// the dataflow kernel as the operator on the §8 path.

// Well is a constant-rate mass source/sink at one cell (positive injects).
type Well struct {
	Cell int
	Rate float64
}

// TransientOptions configures a transient run. Wells are per cell; a
// structured front end expands a column well into one well per layer.
type TransientOptions struct {
	// Dt is the time-step length in seconds; Steps the step count.
	Dt    float64
	Steps int
	Wells []Well
	// Porosity is the constant porosity of the accumulation term (0 selects
	// DefaultPorosity); it must be 0 on a mesh with per-cell Porosity.
	Porosity float64
	// Workers sizes the layout's worker pool (0 = NumCPU; clamped to parts).
	Workers int
	// InitialPressure is the starting field (nil selects uniform 20 MPa).
	InitialPressure []float64
	// Solver overrides the Krylov options (tolerance, iterations, cancel).
	// Its Cancel, when non-nil, is polled by the Krylov loop at every
	// iteration boundary: a tripped cancel stops the in-flight step cleanly
	// between iterations and Solve returns a *StepError wrapping
	// solver.ErrCancelled with the partial convergence stats attached.
	// Per-request: a Cancel on the Solve request overrides the compiled
	// template's.
	Solver solver.Options
	// BeforeSolve, when non-nil, runs immediately before each step's Krylov
	// solve with the effective cancel hook (never nil; a no-op when no
	// Solver.Cancel is installed). It exists for fault injection in tests — a
	// deterministic place to panic, stall (polling cancel so drains can
	// unblock it), or force an error, without touching production arithmetic.
	// A returned error aborts the step as a *StepError.
	BeforeSolve func(cancel func() bool) error
}

func (o TransientOptions) withDefaults(u *Mesh) TransientOptions {
	if o.Porosity == 0 && u.Porosity == nil {
		o.Porosity = DefaultPorosity
	}
	if o.Solver.MaxIter == 0 {
		o.Solver.MaxIter = 800
	}
	if o.Solver.Tol == 0 {
		o.Solver.Tol = 1e-8
	}
	return o
}

// StepError reports a transient step that failed mid-run: which step, the
// failing solve's partial convergence stats (nil when the step never reached
// the Krylov loop), and the underlying cause. It unwraps to the solver
// sentinels, so callers dispatch on errors.Is(err, solver.ErrCancelled /
// ErrBreakdown / ErrNotConverged) and read Iterations/History for
// diagnostics. The message keeps the historical "umesh: step %d: ..." shape.
type StepError struct {
	Step  int
	Stats *solver.Stats
	Err   error
}

func (e *StepError) Error() string { return fmt.Sprintf("umesh: step %d: %v", e.Step, e.Err) }

func (e *StepError) Unwrap() error { return e.Err }

// TransientStep summarizes one implicit step, including the solver's full
// residual history — the golden regression tests assert the history is
// bit-identical across part counts.
type TransientStep struct {
	Step       int
	Iterations int
	Residual   float64
	MaxDeltaP  float64 // Pa
	// MassError is |Σ accum·δp − Σ q| / Σ|q| — the per-step conservation
	// check.
	MassError float64
	// History is ‖r‖/‖b‖ after each Krylov iteration.
	History []float64
}

// TransientResult is a transient run's outcome.
type TransientResult struct {
	Steps []TransientStep
	// Pressure is the final field.
	Pressure []float64
	// OperatorApplications counts partitioned engine applications performed
	// by the Krylov iterations (0 for the serial reference path; the
	// structured front end reports its dataflow kernel's applications here).
	OperatorApplications int
	// Comm is the total halo traffic of those applications (zero for the
	// serial path).
	Comm CommCounters
	// Scatters and Gathers count whole-vector global transfers of the
	// part-resident solves — one of each per time step (zero for the serial
	// path, which works on global slices throughout).
	Scatters, Gathers int
	// Phase is the per-phase wall-clock breakdown of the partitioned solves
	// (zero for the serial path).
	Phase PhaseSeconds
}

// TransientSolver is the resident-engine form of the transient implicit
// path: plan compilation (RCB renumbering consumption, layout send plans,
// CSR interleave, operator build, preconditioner setup hooks) happens once
// in NewTransientSolver, and every Solve after that re-aims the compiled
// engine at a new right-hand side — new wells, step count and initial field
// — without recompiling anything. A one-shot RunTransientPartitioned is
// exactly NewTransientSolver + one Solve + Close, so a reused solver's
// results are the same code path as the one-shot path; the engine-reuse
// golden test asserts they stay bit-identical across interleaved requests.
//
// A TransientSolver is driven by one goroutine at a time (the serving layer
// serializes requests per resident engine).
type TransientSolver struct {
	u   *Mesh
	sys *USystem
	po  *PartOperator // nil on the serial reference path
	// krylov is one step's Krylov solve, compiled onto po or onto the serial
	// reference space.
	krylov *solver.Resident
	close  func()
	opts   TransientOptions // the compiled template (Dt, Porosity, Workers, Solver)

	// CompileSeconds is the wall-clock NewTransientSolver spent building the
	// system and the partitioned operator — the cost a scenario cache
	// amortizes away on a warm hit.
	CompileSeconds float64

	b, x []float64
}

// NewTransientSolver compiles a resident transient solver for a mesh,
// partition and step template. opts.Dt, Porosity, Workers and Solver are
// frozen into the compiled engine; Wells, Steps and
// InitialPressure are per-request inputs consumed by Solve (the values in
// opts serve as that request's defaults). A nil partition compiles the
// serial reference path.
func NewTransientSolver(u *Mesh, p *Partition, fl physics.Fluid, opts TransientOptions) (*TransientSolver, error) {
	start := time.Now()
	sys, err := NewUSystem(u, fl, opts.Dt, opts.Porosity)
	if err != nil {
		return nil, err
	}
	space, closeOp, err := NewSystemSpace(p, sys, opts.Workers)
	if err != nil {
		return nil, err
	}
	s, err := CompileTransient(sys, space, closeOp, opts)
	if err != nil {
		return nil, err
	}
	s.CompileSeconds = time.Since(start).Seconds()
	return s, nil
}

// CompileTransient is the compile step every transient solver shares: it
// compiles the Krylov solve of opts onto a space built for sys — and built
// with opts' Dt, Porosity and Workers — and takes ownership of closeOp, which
// releases the space (on an error here as well). NewTransientSolver calls it
// with the space of NewSystemSpace; the structured front end with a
// ReferenceSpace over its dataflow operator.
func CompileTransient(sys *USystem, space solver.ProgramSpace, closeOp func(), opts TransientOptions) (*TransientSolver, error) {
	opts = opts.withDefaults(sys.U)
	if opts.Dt <= 0 {
		closeOp()
		return nil, fmt.Errorf("umesh: need positive Dt, got %g", opts.Dt)
	}
	// Everything a request should not pay for happens here, not lazily on the
	// first solve: installing the preconditioner — for the operator-built
	// rungs that is hierarchy aggregation, coarse factorization, spectral
	// bounds, block sweeps — and compiling the solve's phase programs. Every
	// Solve on a resident engine then pays the same (setup-free) cost; the
	// serving layer's warm-hit latency depends on it. The serial path differs
	// only in the space the programs are compiled onto.
	krylov, err := solver.CompileCG(space, opts.Solver)
	if err != nil {
		closeOp()
		return nil, err
	}
	s := &TransientSolver{
		u:      sys.U,
		sys:    sys,
		krylov: krylov,
		close:  closeOp,
		opts:   opts,
		b:      make([]float64, sys.U.NumCells),
		x:      make([]float64, sys.U.NumCells),
	}
	s.po, _ = space.(*PartOperator)
	return s, nil
}

// Close releases the compiled engine. The solver is unusable afterwards.
func (s *TransientSolver) Close() {
	if s.close != nil {
		s.close()
		s.close = nil
	}
}

// frozen is the rule for a request field that is compiled into the plan: the
// zero value means the template's, anything else must be the template's.
func frozen[T comparable](name string, req, tmpl T) error {
	var unset T
	if req != unset && req != tmpl {
		return fmt.Errorf("umesh: request %s %v differs from the compiled %v (compile a new solver)", name, req, tmpl)
	}
	return nil
}

// Solve runs one transient request on the compiled engine: req.Steps
// backward-Euler steps driven by req.Wells from req.InitialPressure (zero
// values fall back to the compiled template's). The fields frozen into the
// compiled plan — Dt, Porosity, Workers and the Solver's Tol, MaxIter and
// PrecondKind — must, when set, equal the template's. The returned counters
// (applications, halo traffic, scatters/gathers, phase seconds) are this
// request's own deltas, so a reused solver reports each request as if it ran
// one-shot.
func (s *TransientSolver) Solve(req TransientOptions) (*TransientResult, error) {
	if s.close == nil {
		return nil, fmt.Errorf("umesh: transient solver is closed")
	}
	t := &s.opts
	if err := errors.Join(
		frozen("Dt", req.Dt, t.Dt),
		frozen("Porosity", req.Porosity, t.Porosity),
		frozen("Workers", req.Workers, t.Workers),
		frozen("Solver.Tol", req.Solver.Tol, t.Solver.Tol),
		frozen("Solver.MaxIter", req.Solver.MaxIter, t.Solver.MaxIter),
		frozen("Solver.PrecondKind", req.Solver.PrecondKind, t.Solver.PrecondKind),
	); err != nil {
		return nil, err
	}
	steps := req.Steps
	if steps == 0 {
		steps = s.opts.Steps
	}
	if steps <= 0 {
		return nil, fmt.Errorf("umesh: need positive Steps, got %d", steps)
	}
	wells := req.Wells
	if len(wells) == 0 {
		wells = s.opts.Wells
	}
	if len(wells) == 0 {
		return nil, fmt.Errorf("umesh: no wells — nothing drives the flow")
	}
	u := s.u
	b := s.b
	for i := range b {
		b[i] = 0
	}
	injected := 0.0
	for _, w := range wells {
		if w.Cell < 0 || w.Cell >= u.NumCells {
			return nil, fmt.Errorf("umesh: well cell %d outside %d-cell mesh", w.Cell, u.NumCells)
		}
		if math.IsNaN(w.Rate) || math.IsInf(w.Rate, 0) {
			return nil, fmt.Errorf("umesh: well at cell %d has non-finite rate %g", w.Cell, w.Rate)
		}
		b[w.Cell] += w.Rate
		injected += math.Abs(w.Rate)
	}
	if injected == 0 {
		return nil, fmt.Errorf("umesh: all well rates are zero")
	}

	initial := req.InitialPressure
	if initial == nil {
		initial = s.opts.InitialPressure
	}
	pres := make([]float64, u.NumCells)
	if initial != nil {
		if len(initial) != u.NumCells {
			return nil, fmt.Errorf("umesh: initial pressure length %d != cells %d",
				len(initial), u.NumCells)
		}
		for i, v := range initial {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("umesh: non-finite initial pressure %g at cell %d", v, i)
			}
		}
		copy(pres, initial)
	} else {
		for i := range pres {
			pres[i] = 2e7
		}
	}

	// Snapshot the cumulative operator counters so the result reports this
	// request's deltas — the reuse contract: every request accounts like a
	// one-shot run.
	var baseApps, baseScatters, baseGathers int
	var baseComm CommCounters
	var basePhase PhaseSeconds
	if s.po != nil {
		s.po.syncCounters()
		baseApps = s.po.Applications
		baseComm = s.po.Comm
		baseScatters, baseGathers = s.po.Scatters, s.po.Gathers
		basePhase = s.po.Phase
	}

	// Per-request cancellation: the request's hook wins, the compiled
	// template's is the fallback. The Krylov loop polls it at every
	// iteration barrier.
	cancel := req.Solver.Cancel
	if cancel == nil {
		cancel = s.opts.Solver.Cancel
	}
	beforeSolve := req.BeforeSolve
	if beforeSolve == nil {
		beforeSolve = s.opts.BeforeSolve
	}
	pollCancel := cancel
	if pollCancel == nil {
		pollCancel = func() bool { return false }
	}
	res := &TransientResult{}
	x := s.x
	sumQ := 0.0
	for _, v := range b {
		sumQ += v
	}
	for step := 0; step < steps; step++ {
		for i := range x {
			x[i] = 0 // fresh δp each step (coefficients are frozen)
		}
		if beforeSolve != nil {
			if err := beforeSolve(pollCancel); err != nil {
				return nil, &StepError{Step: step, Err: err}
			}
		}
		st, err := s.krylov.Solve(x, b, cancel)
		if err != nil {
			return nil, &StepError{Step: step, Stats: st, Err: err}
		}
		maxDp, mass := 0.0, 0.0
		for i := range x {
			pres[i] += x[i]
			if a := math.Abs(x[i]); a > maxDp {
				maxDp = a
			}
			mass += s.sys.Accum[i] * x[i]
		}
		res.Steps = append(res.Steps, TransientStep{
			Step:       step,
			Iterations: st.Iterations,
			Residual:   st.Residual,
			MaxDeltaP:  maxDp,
			MassError:  math.Abs(mass-sumQ) / injected,
			History:    st.History,
		})
	}
	res.Pressure = pres
	if s.po != nil {
		s.po.syncCounters() // pick up the gathers/algebra since the last apply
		res.OperatorApplications = s.po.Applications - baseApps
		res.Comm = CommCounters{
			HaloWords:  s.po.Comm.HaloWords - baseComm.HaloWords,
			Messages:   s.po.Comm.Messages - baseComm.Messages,
			Barriers:   s.po.Comm.Barriers - baseComm.Barriers,
			Dispatches: s.po.Comm.Dispatches - baseComm.Dispatches,
		}
		res.Scatters = s.po.Scatters - baseScatters
		res.Gathers = s.po.Gathers - baseGathers
		res.Phase = PhaseSeconds{
			Exchange: s.po.Phase.Exchange - basePhase.Exchange,
			Compute:  s.po.Phase.Compute - basePhase.Compute,
			Reduce:   s.po.Phase.Reduce - basePhase.Reduce,
		}
	}
	return res, nil
}

// RunTransientPartitioned advances an unstructured pressure field through
// opts.Steps implicit backward-Euler steps, one preconditioned Krylov solve
// per step. Partitioned solves run part-resident (one scatter and one
// gather per step; every application, axpy and dot executed as fused phases
// on the persistent engine runtime). A nil partition selects the serial
// float64 reference path (the reference space over UHostOperator)
// — the golden baseline the partitioned runs must match bit-for-bit, which
// tests assert for parts 1–8. It is exactly one compile-and-solve cycle of
// TransientSolver, so serving-layer solves on a cached solver take the same
// code path.
func RunTransientPartitioned(u *Mesh, p *Partition, fl physics.Fluid, opts TransientOptions) (*TransientResult, error) {
	if opts.Dt <= 0 || opts.Steps <= 0 {
		return nil, fmt.Errorf("umesh: need positive Dt and Steps, got %g / %d", opts.Dt, opts.Steps)
	}
	s, err := NewTransientSolver(u, p, fl, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Solve(opts)
}
