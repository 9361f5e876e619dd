// Package solver implements the paper's §8 extension: the flux computation
// "is naturally extendable to a matrix-free operator ... for use in an
// iterative Krylov method which would solve equation (2)". It is the Krylov
// layer and nothing else — it imports no other package of the repository: a
// matrix-free solver (CG) with a preconditioner ladder over an Operator
// interface. The operators live with the meshes they apply: umesh's
// UHostOperator and PartOperator for the pressure system of one
// backward-Euler step of Eq. (2),
//
//	(V·φ·ρref·cf/Δt)·δp − ∂F/∂p·δp = b
//
// and sim's DataflowOperator, which applies the same matrix through the
// paper's own dataflow kernel. The matrix is symmetric positive definite for
// frozen mobilities, so CG is the Krylov method.
//
// Preconditioning is selected by Options.PrecondKind — a ladder of four
// rungs (jacobi, ssor, chebyshev, amg) — and installed through
// ProgramSpace.SetPrecond. Jacobi needs only the matrix diagonal
// (Options.PrecondDiag) and works with any Operator; the operator-built rungs
// are constructed by whoever knows the matrix graph: umesh.PartOperator in its
// own layout, or the builder a SliceSpace is given in its Rung field.
//
// There is one statement of the recurrence and one loop that iterates it:
// cgSetup/cgProgram (resident.go) spell CG as phase programs, and
// Resident.Solve drives them on whatever ProgramSpace it is given. A
// partitioned operator (umesh.PartOperator) compiles the programs into its
// own execution plans; every other Operator is wrapped in a SliceSpace
// (slicespace.go), the reference space that runs the same programs op by op
// on global-order slices — the serial solve is the same solver on the trivial
// layout, and the oracle the partitioned runs are compared against.
package solver

import (
	"errors"
	"fmt"
)

// Operator applies a linear operator y = A·x on float64 vectors.
type Operator interface {
	// Apply computes dst = A·x. len(dst) == len(x) == Size().
	Apply(dst, x []float64) error
	// Size returns the vector length.
	Size() int
}

// Vec is an opaque handle to an operator-resident vector — a vector that
// lives in the operator's own (typically partitioned) layout for the whole
// solve. Handles are small integers issued by ProgramSpace.Reserve.
type Vec int

// Options controls the Krylov iteration.
type Options struct {
	// MaxIter bounds the iteration count (default 500).
	MaxIter int
	// Tol is the relative residual tolerance ‖r‖/‖b‖ (default 1e-8).
	Tol float64
	// PrecondDiag optionally supplies the matrix diagonal (length Size()):
	// what Jacobi preconditioning applies — elementwise z_i = (1/d_i)·r_i on
	// every ProgramSpace, so solves stay bit-identical across spaces — and
	// what the operator-built rungs scale by.
	PrecondDiag []float64
	// PrecondKind selects a rung of the preconditioner ladder (see the
	// PrecondKind constants). The zero value is Jacobi when PrecondDiag is
	// set and the identity otherwise. The operator-built rungs (SSOR,
	// Chebyshev, AMG) need a space that can build them; every space that can
	// applies identical arithmetic, so solves stay bit-identical across
	// spaces and part counts.
	PrecondKind PrecondKind
	// Cancel, when non-nil, is polled at the top of every Krylov iteration
	// — the iteration barrier. When it returns true the solve stops before
	// starting the next iteration and returns ErrCancelled with the best
	// iterate written to x and Stats covering the completed iterations.
	// Cancellation never interrupts an iteration in flight, so the
	// arithmetic of completed iterations (and therefore the bit-identity of
	// solves that finish) is untouched.
	Cancel func() bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 500
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	return o
}

// Stats reports a solve's convergence history.
type Stats struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
	// History holds ‖r‖/‖b‖ after each iteration (capped at MaxIter).
	History []float64
}

// ErrBreakdown is returned when the Krylov recurrence degenerates
// (division by a vanishing inner product).
var ErrBreakdown = errors.New("solver: Krylov breakdown")

// ErrNotConverged is returned when MaxIter is reached above tolerance; the
// best iterate is still written to x.
var ErrNotConverged = errors.New("solver: not converged")

// ErrCancelled is returned when Options.Cancel reports true at an iteration
// boundary; the best iterate is still written to x and Stats reflects the
// iterations that completed.
var ErrCancelled = errors.New("solver: cancelled")

func cancelErr(st *Stats) error {
	return fmt.Errorf("%w after %d iterations (rel residual %.3e)", ErrCancelled, st.Iterations, st.Residual)
}

// CG solves A·x = b for symmetric positive definite A. x carries the
// initial guess and receives the solution. It is one CompileCG and one Solve
// on a's ProgramSpace: a itself when it is one (umesh.PartOperator — one
// scatter of (x, b), compiled phase programs in the operator's own layout, one
// gather), else a SliceSpace around it working in place on x and b. A caller
// that solves the same system repeatedly keeps the Resident instead.
func CG(a Operator, x, b []float64, opts Options) (*Stats, error) {
	r, err := CompileCG(spaceOf(a), opts)
	if err != nil {
		return nil, err
	}
	return r.Solve(x, b, opts.Cancel)
}

// spaceOf is the space a one-shot solve over a runs in.
func spaceOf(a Operator) ProgramSpace {
	if ps, ok := a.(ProgramSpace); ok {
		return ps
	}
	return &SliceSpace{Operator: a}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
