package solver

import (
	"strings"
	"testing"
)

func TestPrecondKindsLadder(t *testing.T) {
	kinds := PrecondKinds()
	want := []PrecondKind{PrecondJacobi, PrecondSSOR, PrecondChebyshev, PrecondAMG}
	if len(kinds) != len(want) {
		t.Fatalf("PrecondKinds() = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("PrecondKinds()[%d] = %q, want %q", i, kinds[i], want[i])
		}
		if !kinds[i].valid() {
			t.Errorf("%q does not validate", kinds[i])
		}
	}
	if !PrecondDefault.valid() {
		t.Error("the default kind does not validate")
	}
	if PrecondKind("nonsense").valid() {
		t.Error("an unknown kind validates")
	}
	if PrecondJacobi.operatorBuilt() || PrecondDefault.operatorBuilt() {
		t.Error("jacobi/default must not require operator cooperation")
	}
	for _, k := range []PrecondKind{PrecondSSOR, PrecondChebyshev, PrecondAMG} {
		if !k.operatorBuilt() {
			t.Errorf("%q must be operator-built", k)
		}
	}
}

func TestPrecondKindValidationOnSlicePath(t *testing.T) {
	// The slice path: an unknown kind is rejected, an operator-built kind on
	// an operator without PrecondFactory is rejected, jacobi demands a
	// diagonal of the operator's size, and an explicit Precond closure wins
	// over the kind.
	a := spdTest(8)
	b := make([]float64, 8)
	b[0] = 1
	x := make([]float64, 8)
	if _, err := CG(a, x, b, Options{PrecondKind: "nonsense"}); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, kind := range []PrecondKind{PrecondSSOR, PrecondChebyshev, PrecondAMG} {
		_, err := CG(a, x, b, Options{PrecondKind: kind})
		if err == nil || !strings.Contains(err.Error(), "PrecondFactory") {
			t.Errorf("%s on a factory-less operator: err = %v, want a PrecondFactory error", kind, err)
		}
	}
	if _, err := CG(a, x, b, Options{PrecondKind: PrecondJacobi}); err == nil {
		t.Error("jacobi without a diagonal accepted")
	}
	// A diagonal of the wrong length is refused up front with the resident
	// path's message, on both paths — it used to reach the closure and
	// either panic (short) or be silently truncated (long).
	short := []float64{4, 4, 4}
	for name, op := range map[string]Operator{"slice": a, "resident": &sliceSpace{denseOp: a}} {
		for _, solve := range []func(Operator, []float64, []float64, Options) (*Stats, error){CG, BiCGStab} {
			_, err := solve(op, x, b, Options{PrecondDiag: short})
			if err == nil || !strings.Contains(err.Error(), "preconditioner diagonal covers 3 entries, operator has 8") {
				t.Errorf("%s path, short PrecondDiag: err = %v, want the length error", name, err)
			}
		}
	}
	// JacobiPrecond itself refuses a nil or empty diagonal instead of
	// returning a closure that indexes out of range on first use.
	for _, diag := range [][]float64{nil, {}} {
		if pre, err := JacobiPrecond(diag); err == nil || pre != nil {
			t.Errorf("JacobiPrecond(%v) = (%v, %v), want an error", diag, pre != nil, err)
		}
	}
	// An explicit closure short-circuits kind resolution entirely.
	applied := false
	pre := func(z, r []float64) { applied = true; copy(z, r) }
	if _, err := CG(a, x, b, Options{PrecondKind: PrecondAMG, Precond: pre}); err != nil {
		t.Fatalf("explicit Precond with a ladder kind: %v", err)
	}
	if !applied {
		t.Error("explicit Precond closure never ran")
	}
}

func TestPrecondKindValidationOnResidentPath(t *testing.T) {
	// The resident path: a ProgramSpace whose SetPrecond cannot build the
	// operator-built rungs surfaces that error; jacobi still demands a
	// diagonal.
	op := spdTest(8)
	d := &sliceSpace{denseOp: op}
	b := make([]float64, 8)
	b[0] = 1
	x := make([]float64, 8)
	if _, err := CG(d, x, b, Options{PrecondKind: "nonsense"}); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, kind := range []PrecondKind{PrecondSSOR, PrecondChebyshev, PrecondAMG} {
		_, err := CG(d, x, b, Options{PrecondKind: kind})
		if err == nil || !strings.Contains(err.Error(), "cannot build") {
			t.Errorf("%s on a rung-less ProgramSpace: err = %v, want its SetPrecond error", kind, err)
		}
	}
	if _, err := CG(d, x, b, Options{PrecondKind: PrecondJacobi}); err == nil {
		t.Error("jacobi without a diagonal accepted")
	}
	if _, err := BiCGStab(d, x, b, Options{PrecondKind: PrecondAMG}); err == nil {
		t.Error("BiCGStab resident path accepted an uninstallable rung")
	}
	// The supported kinds still solve.
	st, err := CG(d, x, b, Options{PrecondKind: PrecondJacobi, PrecondDiag: diagOf(op)})
	if err != nil || !st.Converged {
		t.Fatalf("resident jacobi-by-kind failed: %v", err)
	}
}
