package solver

import "fmt"

// This file is the preconditioner ladder's solver-side plumbing. A
// preconditioner rung is selected by name (Options.PrecondKind); how it is
// realized depends on the operator:
//
//   - the slice path asks the operator to build a closure through the
//     optional PrecondFactory extension (the serial reference operator
//     implements it, so serial golden trajectories wrap the very same
//     preconditioner the partitioned solves run);
//   - the part-resident path installs every rung, Jacobi and identity
//     included, through ProgramSpace.SetPrecond, so the preconditioner
//     application compiles into the phase programs as steps in the
//     operator's own compact layout.
//
// On the slice path Jacobi (and the identity default) need no operator
// cooperation: they are built directly from Options.PrecondDiag.

// PrecondKind names a rung of the preconditioner ladder. The zero value
// selects the pre-ladder default: Jacobi when Options.PrecondDiag is set,
// identity otherwise.
type PrecondKind string

// The ladder's rungs, in ascending strength (and per-iteration cost):
// diagonal scaling, symmetric Gauss–Seidel over canonical blocks, a fixed-
// degree Chebyshev polynomial of the Jacobi-scaled operator, and a two-level
// aggregation AMG V-cycle.
const (
	// PrecondDefault is the unset kind: Jacobi when PrecondDiag is given,
	// identity otherwise.
	PrecondDefault PrecondKind = ""
	// PrecondJacobi is diagonal scaling z_i = (1/d_i)·r_i. Requires
	// Options.PrecondDiag.
	PrecondJacobi PrecondKind = "jacobi"
	// PrecondSSOR is symmetric Gauss–Seidel (SSOR at ω=1) restricted to the
	// operator's canonical reduction blocks, so the sweep is identical for
	// every part count. Operator-built (PrecondFactory / ProgramSpace.SetPrecond).
	PrecondSSOR PrecondKind = "ssor"
	// PrecondChebyshev is a fixed-degree Chebyshev polynomial of the
	// Jacobi-scaled operator — applications and elementwise updates only,
	// no triangular solves. Operator-built.
	PrecondChebyshev PrecondKind = "chebyshev"
	// PrecondAMG is a two-level aggregation AMG V-cycle: weighted-Jacobi
	// smoothing around a Galerkin coarse correction whose operator is
	// assembled once per system and factored directly. Operator-built.
	PrecondAMG PrecondKind = "amg"
)

// PrecondKinds lists the ladder's rungs in ascending strength order — the
// sweep order benchmarks and CLIs use.
func PrecondKinds() []PrecondKind {
	return []PrecondKind{PrecondJacobi, PrecondSSOR, PrecondChebyshev, PrecondAMG}
}

// valid reports whether k names a known rung (or the default).
func (k PrecondKind) valid() bool {
	switch k {
	case PrecondDefault, PrecondJacobi, PrecondSSOR, PrecondChebyshev, PrecondAMG:
		return true
	}
	return false
}

// operatorBuilt reports whether the rung needs the operator to construct it
// (everything above Jacobi: the construction needs the matrix graph).
func (k PrecondKind) operatorBuilt() bool {
	switch k {
	case PrecondSSOR, PrecondChebyshev, PrecondAMG:
		return true
	}
	return false
}

// PrecondFactory is an optional Operator extension: an operator that can
// build the ladder's operator-defined preconditioners as slice closures.
// The slice-path solvers call it for any operator-built PrecondKind; the
// returned closure must apply the exact same arithmetic, in the same order,
// as the resident counterpart (ProgramSpace.SetPrecond), so slice and resident
// solves with the same rung stay bit-identical.
type PrecondFactory interface {
	MakePrecond(kind PrecondKind, diag []float64) (func(z, r []float64), error)
}

// checkPrecond validates what both paths require of a kind-selected
// preconditioner before anything is built: a known kind, a diagonal for
// Jacobi, and a diagonal (when given) of the operator's size.
func checkPrecond(n int, opts Options) error {
	if !opts.PrecondKind.valid() {
		return fmt.Errorf("solver: unknown preconditioner kind %q", opts.PrecondKind)
	}
	if opts.PrecondKind == PrecondJacobi && opts.PrecondDiag == nil {
		return fmt.Errorf("solver: %q preconditioning needs Options.PrecondDiag", opts.PrecondKind)
	}
	if opts.PrecondDiag != nil && len(opts.PrecondDiag) != n {
		return fmt.Errorf("solver: preconditioner diagonal covers %d entries, operator has %d", len(opts.PrecondDiag), n)
	}
	return nil
}

// resolvePrecond materializes Options.PrecondKind/PrecondDiag into the
// slice-path closure when no explicit closure was given. Operator-built
// rungs are delegated to the operator's PrecondFactory.
func resolvePrecond(a Operator, opts *Options) error {
	if opts.Precond != nil {
		return nil
	}
	if err := checkPrecond(a.Size(), *opts); err != nil {
		return err
	}
	if opts.PrecondKind.operatorBuilt() {
		f, ok := a.(PrecondFactory)
		if !ok {
			return fmt.Errorf("solver: operator %T cannot build the %q preconditioner (no PrecondFactory)", a, opts.PrecondKind)
		}
		pre, err := f.MakePrecond(opts.PrecondKind, opts.PrecondDiag)
		if err != nil {
			return err
		}
		opts.Precond = pre
		return nil
	}
	if opts.PrecondDiag == nil {
		return nil
	}
	pre, err := JacobiPrecond(opts.PrecondDiag)
	if err != nil {
		return err
	}
	opts.Precond = pre
	return nil
}

// installPrecond installs the selected rung on a resident operator. A
// global-slice closure cannot run there — the vectors never leave the
// operator's layout — so Options.Precond is refused rather than silently
// rerouted through a scatter and gather per application.
func installPrecond(a ProgramSpace, opts Options) error {
	if opts.Precond != nil {
		return fmt.Errorf("solver: Options.Precond is a global-slice closure and cannot run on the resident operator %T; select the preconditioner with PrecondKind/PrecondDiag", a)
	}
	if err := checkPrecond(a.Size(), opts); err != nil {
		return err
	}
	return a.SetPrecond(opts.PrecondKind, opts.PrecondDiag)
}
