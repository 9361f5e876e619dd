// Package sim assembles the pieces into a small implicit simulator — the
// workflow the paper positions the flux kernel inside ("the computation of
// the intercell flux and its derivatives ... is a key step of the simulator
// workflow", §2). Each time step solves one backward-Euler pressure system
// with a preconditioned Krylov iteration, optionally applying the operator
// through the dataflow kernel, then advances the pressure field.
package sim

import (
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/solver"
)

// Well is a constant-rate source/sink completing a whole column.
type Well struct {
	X, Y int
	// Rate is the mass rate in kg/s (positive injects).
	Rate float64
}

// Options configures a transient run.
type Options struct {
	// Dt is the time-step length in seconds; Steps the step count.
	Dt    float64
	Steps int
	Wells []Well
	// UseDataflowOperator routes every Krylov operator application through
	// the dataflow flux kernel (§8); otherwise the float64 host assembly.
	UseDataflowOperator bool
	// Workers > 1 executes each dataflow operator application on the
	// sharded parallel flat engine with that worker count (bit-identical
	// results, multi-core wall-clock).
	Workers int
	// Faces selects the stencil.
	Faces refflux.FaceSet
	// Solver overrides the Krylov options (tolerance, iterations).
	Solver solver.Options
}

func (o Options) withDefaults() Options {
	if o.Solver.MaxIter == 0 {
		o.Solver.MaxIter = 800
	}
	if o.Solver.Tol == 0 {
		o.Solver.Tol = 1e-8
	}
	return o
}

// StepReport summarizes one time step.
type StepReport struct {
	Step       int
	Iterations int
	Residual   float64
	MaxDeltaP  float64 // Pa
	// MassError is |Σ accum·δp − Σ q·Δt-normalized| / injected mass —
	// the per-step conservation check.
	MassError float64
}

// Result is a transient run's outcome.
type Result struct {
	Steps []StepReport
	// Pressure is the final field (the mesh is also updated in place).
	Pressure []float64
	// OperatorApplications counts dataflow kernel applications (the §3
	// "Algorithm 1 applied N times" pattern, now driven by the solver).
	OperatorApplications int
}

// RunTransient advances the mesh's pressure field through opts.Steps
// implicit steps, modifying m.Pressure in place.
func RunTransient(m *mesh.Mesh, fl physics.Fluid, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Dt <= 0 || opts.Steps <= 0 {
		return nil, fmt.Errorf("sim: need positive Dt and Steps, got %g / %d", opts.Dt, opts.Steps)
	}
	if len(opts.Wells) == 0 {
		return nil, fmt.Errorf("sim: no wells — nothing drives the flow")
	}
	for _, w := range opts.Wells {
		if w.X < 0 || w.X >= m.Dims.Nx || w.Y < 0 || w.Y >= m.Dims.Ny {
			return nil, fmt.Errorf("sim: well (%d,%d) outside %v", w.X, w.Y, m.Dims)
		}
	}

	sys, err := solver.NewPressureSystem(m, fl, opts.Dt, opts.Faces)
	if err != nil {
		return nil, err
	}
	var op solver.Operator
	var dfo *solver.DataflowOperator
	if opts.UseDataflowOperator {
		dfo = solver.NewDataflowOperator(sys, fl)
		defer dfo.Close()
		dfo.Workers = opts.Workers
		if err := dfo.Verify(); err != nil {
			return nil, err
		}
		op = dfo
	} else {
		op = &solver.HostOperator{Sys: sys}
	}
	// Jacobi-preconditioned CG, compiled once and re-run every step.
	sopts := opts.Solver
	sopts.PrecondDiag = sys.Diagonal()
	cg, err := solver.CompileCG(&solver.SliceSpace{Operator: op}, sopts)
	if err != nil {
		return nil, err
	}

	n := m.Dims.Cells()
	b := make([]float64, n)
	injected := 0.0
	for _, w := range opts.Wells {
		per := w.Rate / float64(m.Dims.Nz)
		for z := 0; z < m.Dims.Nz; z++ {
			b[m.Index(w.X, w.Y, z)] += per
		}
		injected += math.Abs(w.Rate)
	}
	if injected == 0 {
		return nil, fmt.Errorf("sim: all well rates are zero")
	}

	res := &Result{}
	x := make([]float64, n)
	for step := 0; step < opts.Steps; step++ {
		for i := range x {
			x[i] = 0 // fresh δp each step (coefficients are frozen)
		}
		st, err := cg.Solve(x, b, sopts.Cancel)
		if err != nil {
			return nil, fmt.Errorf("sim: step %d: %w", step, err)
		}
		maxDp, mass := 0.0, 0.0
		for i := range x {
			m.Pressure[i] += x[i]
			if a := math.Abs(x[i]); a > maxDp {
				maxDp = a
			}
			mass += sys.Accum[i] * x[i]
		}
		sumQ := 0.0
		for _, v := range b {
			sumQ += v
		}
		rep := StepReport{
			Step:       step,
			Iterations: st.Iterations,
			Residual:   st.Residual,
			MaxDeltaP:  maxDp,
			MassError:  math.Abs(mass-sumQ) / injected,
		}
		res.Steps = append(res.Steps, rep)
	}
	res.Pressure = m.Pressure
	if dfo != nil {
		res.OperatorApplications = dfo.Applications
	}
	return res, nil
}
