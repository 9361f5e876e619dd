// Package sim is the structured front end of the small implicit simulator —
// the workflow the paper positions the flux kernel inside ("the computation
// of the intercell flux and its derivatives ... is a key step of the
// simulator workflow", §2). It owns no step loop: a run converts the
// structured mesh with umesh.FromStructured (same numbering, per-cell
// porosity), turns each column well into one cell well per layer, and runs
// umesh's backward-Euler loop — one preconditioned Krylov solve per step —
// on the float64 host operator or, the §8 execution model, with every
// operator application through the dataflow kernel (DataflowOperator).
package sim

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/solver"
	"repro/internal/umesh"
)

// Well is a constant-rate source/sink completing a whole column.
type Well struct {
	X, Y int
	// Rate is the mass rate in kg/s (positive injects), spread evenly over
	// the column's layers.
	Rate float64
}

// Options configures a transient run.
type Options struct {
	// Dt is the time-step length in seconds; Steps the step count.
	Dt    float64
	Steps int
	Wells []Well
	// UseDataflowOperator routes every Krylov operator application through
	// the dataflow flux kernel (§8); otherwise the float64 host operator.
	UseDataflowOperator bool
	// Workers > 1 executes each dataflow operator application on the
	// sharded parallel flat engine with that worker count (bit-identical
	// results, multi-core wall-clock).
	Workers int
	// Faces selects the stencil.
	Faces refflux.FaceSet
	// Solver overrides the Krylov options (tolerance, iterations, cancel).
	Solver solver.Options
}

// RunTransient advances the mesh's pressure field through opts.Steps
// implicit steps. m.Pressure is advanced in place and is the result's
// Pressure; OperatorApplications counts dataflow kernel applications (0 on
// the host operator).
func RunTransient(m *mesh.Mesh, fl physics.Fluid, opts Options) (*umesh.TransientResult, error) {
	topts := umesh.TransientOptions{
		Dt:              opts.Dt,
		Steps:           opts.Steps,
		Workers:         opts.Workers,
		InitialPressure: m.Pressure,
		Solver:          opts.Solver,
		Cancel:          opts.Solver.Cancel,
	}
	for _, w := range opts.Wells {
		if w.X < 0 || w.X >= m.Dims.Nx || w.Y < 0 || w.Y >= m.Dims.Ny {
			return nil, fmt.Errorf("sim: well (%d,%d) outside %v", w.X, w.Y, m.Dims)
		}
		per := w.Rate / float64(m.Dims.Nz)
		for z := 0; z < m.Dims.Nz; z++ {
			topts.Wells = append(topts.Wells, umesh.Well{Cell: m.Index(w.X, w.Y, z), Rate: per})
		}
	}
	u, err := umesh.FromStructured(m, opts.Faces)
	if err != nil {
		return nil, err
	}
	var s *umesh.TransientSolver
	var op *DataflowOperator
	if !opts.UseDataflowOperator {
		s, err = umesh.NewTransientSolver(u, nil, fl, topts)
	} else {
		// The host path's system and reference space, with the kernel as
		// the operator: the two solves differ only in the applications.
		var sys *umesh.USystem
		if sys, err = umesh.NewUSystem(u, fl, opts.Dt, 0); err != nil {
			return nil, err
		}
		op = NewDataflowOperator(m, sys, fl, opts.Faces)
		op.Workers = opts.Workers
		if err = op.Verify(); err != nil {
			return nil, err
		}
		s, err = umesh.CompileTransient(sys, umesh.ReferenceSpace(sys, op), op.Close, topts)
	}
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res, err := s.Solve(umesh.TransientOptions{})
	if err != nil {
		return nil, err
	}
	copy(m.Pressure, res.Pressure)
	res.Pressure = m.Pressure
	if op != nil {
		res.OperatorApplications = op.Applications
	}
	return res, nil
}
