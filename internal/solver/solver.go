// Package solver implements the paper's §8 extension: the flux computation
// "is naturally extendable to a matrix-free operator ... for use in an
// iterative Krylov method which would solve equation (2)". It provides
// matrix-free Krylov solvers (CG and BiCGStab) with Jacobi preconditioning
// over an Operator interface, plus two operators for the implicit pressure
// equation:
//
//   - HostOperator: the TPFA flux Jacobian with frozen face mobilities,
//     assembled from the mesh on the host (float64);
//   - DataflowOperator: matrix-free application through the paper's own
//     dataflow kernel — with compressibility and gravity zeroed, the flux
//     residual is exactly linear in pressure, so one engine run per Apply
//     evaluates A·x on the (simulated) wafer.
//
// The solved system is one backward-Euler step of Eq. (2):
//
//	(V·φ·ρref·cf/Δt)·δp − ∂F/∂p·δp = b
//
// whose matrix is symmetric positive definite for frozen mobilities, making
// CG applicable; BiCGStab is provided for the general case.
//
// Preconditioning is selected by Options.PrecondKind — a ladder of four
// rungs (jacobi, ssor, chebyshev, amg). Jacobi needs only the matrix
// diagonal (Options.PrecondDiag) and works with any Operator; the
// operator-built rungs are constructed by the operator itself: as a slice
// closure through PrecondFactory (umesh's serial reference) or installed
// resident through ProgramSpace.SetPrecond (umesh.PartOperator). An explicit
// Options.Precond closure bypasses kind resolution on the slice path; a
// ProgramSpace operator rejects it.
//
// There are two executions of the recurrences and no third: the slice
// CG/BiCGStab below (any Operator; also the independent recurrence the
// bit-identity tests compare against) and the phase programs of resident.go,
// which a ProgramSpace operator compiles and runs in its own layout.
package solver

import (
	"errors"
	"fmt"
	"math"
)

// Operator applies a linear operator y = A·x on float64 vectors.
type Operator interface {
	// Apply computes dst = A·x. len(dst) == len(x) == Size().
	Apply(dst, x []float64) error
	// Size returns the vector length.
	Size() int
}

// Reducer is an optional Operator extension: a distributed inner product.
// Partitioned operators implement it to compute dot products through their
// own runtime (parallel per-part partial sums, then a deterministic fold in
// a fixed order), and the slice-based Krylov iterations route every inner
// product and norm through it. A conforming implementation must return the
// same left-to-right sum for every configuration of its runtime (worker
// count, part count), so solves stay bit-reproducible.
type Reducer interface {
	Dot(a, b []float64) float64
}

// Vec is an opaque handle to an operator-resident vector — a vector that
// lives in the operator's own (typically partitioned) layout for the whole
// solve. Handles are small integers issued by ProgramSpace.Reserve.
type Vec int

// dotOf routes an inner product through the operator's own reduction when it
// provides one.
func dotOf(a Operator, x, y []float64) float64 {
	if r, ok := a.(Reducer); ok {
		return r.Dot(x, y)
	}
	return dot(x, y)
}

// normOf is the Euclidean norm through the operator's reduction.
func normOf(a Operator, x []float64) float64 { return math.Sqrt(dotOf(a, x, x)) }

// Options controls the Krylov iteration.
type Options struct {
	// MaxIter bounds the iteration count (default 500).
	MaxIter int
	// Tol is the relative residual tolerance ‖r‖/‖b‖ (default 1e-8).
	Tol float64
	// Precond optionally supplies a preconditioner application z = M⁻¹r as
	// a closure over global slices. Only the slice path can run it: a
	// ProgramSpace operator keeps its vectors in its own layout, so setting
	// Precond with one is an error — use PrecondDiag/PrecondKind instead.
	Precond func(z, r []float64)
	// PrecondDiag optionally supplies the matrix diagonal for Jacobi
	// preconditioning (length Size()). The slice path builds the equivalent
	// of JacobiPrecond(PrecondDiag); the part-resident path installs it
	// through ProgramSpace.SetPrecond — elementwise z_i = (1/d_i)·r_i either
	// way, so the two paths stay bit-identical. Ignored when Precond is set.
	PrecondDiag []float64
	// PrecondKind selects a rung of the preconditioner ladder (see the
	// PrecondKind constants). The zero value keeps the pre-ladder behavior:
	// Jacobi when PrecondDiag is set, identity otherwise. Operator-built
	// rungs (SSOR, Chebyshev, AMG) require the operator to build them:
	// PrecondFactory on the slice path, ProgramSpace.SetPrecond on the
	// resident path; the two realizations apply identical arithmetic, so
	// solves stay bit-identical across paths and part counts. Ignored when
	// Precond is set.
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

// cancelled polls the cancel hook (nil means never).
func (o Options) cancelled() bool { return o.Cancel != nil && o.Cancel() }

func cancelErr(st *Stats) error {
	return fmt.Errorf("%w after %d iterations (rel residual %.3e)", ErrCancelled, st.Iterations, st.Residual)
}

// CG solves A·x = b for symmetric positive definite A. x carries the
// initial guess and receives the solution.
//
// When the operator is a ProgramSpace the whole recurrence runs
// part-resident: one scatter of (x, b), one gather of the solution, and every
// Apply/axpy/dot in between executed in the operator's own layout as
// compiled phase programs (resident.go).
func CG(a Operator, x, b []float64, opts Options) (*Stats, error) {
	opts = opts.withDefaults()
	n := a.Size()
	if len(x) != n || len(b) != n {
		return nil, fmt.Errorf("solver: size mismatch: operator %d, x %d, b %d", n, len(x), len(b))
	}
	if ps, ok := a.(ProgramSpace); ok {
		r, err := CompileCG(ps, opts)
		if err != nil {
			return nil, err
		}
		return r.Solve(x, b, opts.Cancel)
	}
	if err := resolvePrecond(a, &opts); err != nil {
		return nil, err
	}
	normB := normOf(a, b)
	if normB == 0 {
		zero(x)
		return &Stats{Converged: true}, nil
	}
	r := make([]float64, n)
	if err := a.Apply(r, x); err != nil {
		return nil, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	z := make([]float64, n)
	applyPrecond(opts, z, r)
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := dotOf(a, r, z)
	st := &Stats{}
	for k := 0; k < opts.MaxIter; k++ {
		if opts.cancelled() {
			return st, cancelErr(st)
		}
		if err := a.Apply(ap, p); err != nil {
			return nil, err
		}
		pap := dotOf(a, p, ap)
		if pap == 0 || math.IsNaN(pap) {
			return st, fmt.Errorf("%w: pᵀAp = %v at iteration %d", ErrBreakdown, pap, k)
		}
		alpha := rz / pap
		axpy(x, alpha, p)
		axpy(r, -alpha, ap)
		st.Iterations = k + 1
		st.Residual = normOf(a, r) / normB
		st.History = append(st.History, st.Residual)
		if st.Residual <= opts.Tol {
			st.Converged = true
			return st, nil
		}
		applyPrecond(opts, z, r)
		rzNew := dotOf(a, r, z)
		if rz == 0 {
			return st, fmt.Errorf("%w: rᵀz vanished at iteration %d", ErrBreakdown, k)
		}
		beta := rzNew / rz
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		rz = rzNew
	}
	return st, fmt.Errorf("%w after %d iterations (rel residual %.3e)", ErrNotConverged, st.Iterations, st.Residual)
}

// BiCGStab solves A·x = b for general (nonsymmetric) A. Like CG, the solve
// runs part-resident when the operator is a ProgramSpace.
func BiCGStab(a Operator, x, b []float64, opts Options) (*Stats, error) {
	opts = opts.withDefaults()
	n := a.Size()
	if len(x) != n || len(b) != n {
		return nil, fmt.Errorf("solver: size mismatch: operator %d, x %d, b %d", n, len(x), len(b))
	}
	if ps, ok := a.(ProgramSpace); ok {
		r, err := CompileBiCGStab(ps, opts)
		if err != nil {
			return nil, err
		}
		return r.Solve(x, b, opts.Cancel)
	}
	if err := resolvePrecond(a, &opts); err != nil {
		return nil, err
	}
	normB := normOf(a, b)
	if normB == 0 {
		zero(x)
		return &Stats{Converged: true}, nil
	}
	r := make([]float64, n)
	if err := a.Apply(r, x); err != nil {
		return nil, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rHat := append([]float64(nil), r...)
	var rho, alpha, omega float64 = 1, 1, 1
	v := make([]float64, n)
	p := make([]float64, n)
	ph := make([]float64, n)
	s := make([]float64, n)
	sh := make([]float64, n)
	t := make([]float64, n)
	st := &Stats{}
	for k := 0; k < opts.MaxIter; k++ {
		if opts.cancelled() {
			return st, cancelErr(st)
		}
		rhoNew := dotOf(a, rHat, r)
		if rhoNew == 0 {
			return st, fmt.Errorf("%w: ρ = 0 at iteration %d", ErrBreakdown, k)
		}
		if k == 0 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew
		applyPrecond(opts, ph, p)
		if err := a.Apply(v, ph); err != nil {
			return nil, err
		}
		den := dotOf(a, rHat, v)
		if den == 0 {
			return st, fmt.Errorf("%w: r̂ᵀv = 0 at iteration %d", ErrBreakdown, k)
		}
		alpha = rho / den
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		st.Iterations = k + 1
		if res := normOf(a, s) / normB; res <= opts.Tol {
			axpy(x, alpha, ph)
			st.Residual = res
			st.History = append(st.History, res)
			st.Converged = true
			return st, nil
		}
		applyPrecond(opts, sh, s)
		if err := a.Apply(t, sh); err != nil {
			return nil, err
		}
		tt := dotOf(a, t, t)
		if tt == 0 {
			return st, fmt.Errorf("%w: tᵀt = 0 at iteration %d", ErrBreakdown, k)
		}
		omega = dotOf(a, t, s) / tt
		if omega == 0 {
			return st, fmt.Errorf("%w: ω = 0 at iteration %d", ErrBreakdown, k)
		}
		for i := range x {
			x[i] += alpha*ph[i] + omega*sh[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		st.Residual = normOf(a, r) / normB
		st.History = append(st.History, st.Residual)
		if st.Residual <= opts.Tol {
			st.Converged = true
			return st, nil
		}
	}
	return st, fmt.Errorf("%w after %d iterations (rel residual %.3e)", ErrNotConverged, st.Iterations, st.Residual)
}

// JacobiPrecond builds a Jacobi (diagonal) preconditioner z_i = (1/d_i)·r_i
// from the given matrix diagonal. The diagonal must be non-empty and free of
// zero/NaN entries; the closure applies to vectors of exactly that length.
func JacobiPrecond(diag []float64) (func(z, r []float64), error) {
	if len(diag) == 0 {
		return nil, fmt.Errorf("solver: Jacobi preconditioning needs a non-empty matrix diagonal")
	}
	for i, d := range diag {
		if d == 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("solver: zero/NaN diagonal entry at %d", i)
		}
	}
	inv := make([]float64, len(diag))
	for i, d := range diag {
		inv[i] = 1 / d
	}
	return func(z, r []float64) {
		for i := range z {
			z[i] = inv[i] * r[i]
		}
	}, nil
}

func applyPrecond(opts Options, z, r []float64) {
	if opts.Precond != nil {
		opts.Precond(z, r)
		return
	}
	copy(z, r)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func axpy(y []float64, alpha float64, x []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
