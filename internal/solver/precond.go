package solver

import (
	"fmt"
	"math"
)

// This file is the preconditioner ladder's solver-side plumbing. A rung is
// selected by name (Options.PrecondKind) and installed — Jacobi included —
// through ProgramSpace.SetPrecond, so its application compiles into the phase
// programs as steps in the space's own layout. Every rung is built from the
// space's own matrix diagonal. What a space can build is its own business:
// umesh.PartOperator builds every rung as shard kernels, a SliceSpace builds
// Jacobi itself and the rest through its Rung field. CheckPrecond is the
// validation every SetPrecond starts with.

// PrecondKind names a rung of the preconditioner ladder. The zero value is
// Jacobi.
type PrecondKind string

// The ladder's rungs, in ascending strength: diagonal scaling, a fixed-degree
// Chebyshev polynomial of the Jacobi-scaled operator, and a two-level
// aggregation AMG V-cycle.
const (
	// PrecondJacobi is diagonal scaling z_i = (1/d_i)·r_i.
	PrecondJacobi PrecondKind = "jacobi"
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
	return []PrecondKind{PrecondJacobi, PrecondChebyshev, PrecondAMG}
}

// valid reports whether k names a known rung (the zero value is Jacobi).
func (k PrecondKind) valid() bool {
	switch k {
	case "", PrecondJacobi, PrecondChebyshev, PrecondAMG:
		return true
	}
	return false
}

// operatorBuilt reports whether the rung needs the operator to construct it
// (everything above Jacobi: the construction needs the matrix graph).
func (k PrecondKind) operatorBuilt() bool {
	switch k {
	case PrecondChebyshev, PrecondAMG:
		return true
	}
	return false
}

// CheckPrecond validates a SetPrecond request against an n-row operator and
// the diagonal the space derived from its own system — the one statement of
// what a preconditioner diagonal must be, called first by every ProgramSpace:
// a known kind; n entries; every entry finite and non-zero (a zero or ±Inf
// entry would invert to ±Inf or 0 and surface iterations later as a vanished
// rᵀz).
func CheckPrecond(n int, kind PrecondKind, diag []float64) error {
	if !kind.valid() {
		return fmt.Errorf("solver: unknown preconditioner kind %q", kind)
	}
	if len(diag) != n {
		return fmt.Errorf("solver: preconditioner diagonal covers %d entries, operator has %d", len(diag), n)
	}
	for i, d := range diag {
		if d == 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("solver: zero or non-finite preconditioner diagonal entry %g at %d", d, i)
		}
	}
	return nil
}
