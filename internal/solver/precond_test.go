package solver

import (
	"math"
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

// badDiagonals are the entries no preconditioner diagonal may hold: each would
// invert to ±Inf, NaN or 0.
var badDiagonals = []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)}

func TestPrecondKindValidationOnSlicePath(t *testing.T) {
	// A plain Operator (wrapped in a rung-less SliceSpace): an unknown kind is
	// rejected, an operator-built kind is rejected because nothing can build
	// it, jacobi demands a diagonal of the operator's size, and a zero, NaN or
	// ±Inf entry is refused by index.
	a := spdTest(8)
	b := make([]float64, 8)
	b[0] = 1
	x := make([]float64, 8)
	if _, err := CG(a, x, b, Options{PrecondKind: "nonsense"}); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, kind := range []PrecondKind{PrecondSSOR, PrecondChebyshev, PrecondAMG} {
		_, err := CG(a, x, b, Options{PrecondKind: kind, PrecondDiag: diagOf(a)})
		if err == nil || !strings.Contains(err.Error(), "cannot build") {
			t.Errorf("%s on a plain operator: err = %v, want a cannot-build error", kind, err)
		}
	}
	if _, err := CG(a, x, b, Options{PrecondKind: PrecondJacobi}); err == nil {
		t.Error("jacobi without a diagonal accepted")
	}
	// A diagonal of the wrong length is refused up front, wrapped or not.
	short := []float64{4, 4, 4}
	for name, op := range map[string]Operator{"slice": a, "resident": &SliceSpace{Operator: a}} {
		_, err := CG(op, x, b, Options{PrecondDiag: short})
		if err == nil || !strings.Contains(err.Error(), "preconditioner diagonal covers 3 entries, operator has 8") {
			t.Errorf("%s path, short PrecondDiag: err = %v, want the length error", name, err)
		}
	}
	// An empty diagonal is a wrong-length diagonal, not a licence to index
	// out of range on first use.
	if _, err := CG(a, x, b, Options{PrecondDiag: []float64{}}); err == nil {
		t.Error("empty diagonal accepted")
	}
	for _, bad := range badDiagonals {
		diag := diagOf(a)
		diag[5] = bad
		if _, err := CG(a, x, b, Options{PrecondDiag: diag}); err == nil || !strings.Contains(err.Error(), "at 5") {
			t.Errorf("diagonal entry %v: err = %v, want a rejection naming index 5", bad, err)
		}
	}
}

func TestPrecondKindValidationOnResidentPath(t *testing.T) {
	// An explicit SliceSpace: without a Rung builder the operator-built rungs
	// surface its SetPrecond error; jacobi still demands a diagonal; with a
	// builder the kind and the validated diagonal reach it.
	op := spdTest(8)
	d := &SliceSpace{Operator: op}
	b := make([]float64, 8)
	b[0] = 1
	x := make([]float64, 8)
	if _, err := CG(d, x, b, Options{PrecondKind: "nonsense"}); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, kind := range []PrecondKind{PrecondSSOR, PrecondChebyshev, PrecondAMG} {
		_, err := CG(d, x, b, Options{PrecondKind: kind, PrecondDiag: diagOf(op)})
		if err == nil || !strings.Contains(err.Error(), "cannot build") {
			t.Errorf("%s on a rung-less SliceSpace: err = %v, want its SetPrecond error", kind, err)
		}
		if _, err := CG(d, x, b, Options{PrecondKind: kind}); err == nil {
			t.Errorf("%s without a diagonal accepted", kind)
		}
	}
	if _, err := CG(d, x, b, Options{PrecondKind: PrecondJacobi}); err == nil {
		t.Error("jacobi without a diagonal accepted")
	}
	for _, bad := range badDiagonals {
		diag := diagOf(op)
		diag[2] = bad
		if err := d.SetPrecond(PrecondDefault, diag); err == nil || !strings.Contains(err.Error(), "at 2") {
			t.Errorf("SetPrecond with diagonal entry %v: err = %v, want a rejection naming index 2", bad, err)
		}
	}
	// The supported kinds still solve.
	st, err := CG(d, x, b, Options{PrecondKind: PrecondJacobi, PrecondDiag: diagOf(op)})
	if err != nil || !st.Converged {
		t.Fatalf("jacobi-by-kind failed: %v", err)
	}
	var built PrecondKind
	d.Rung = func(kind PrecondKind, diag []float64) (func(z, r []float64), error) {
		built = kind
		return func(z, r []float64) { copy(z, r) }, nil
	}
	if st, err := CG(d, x, b, Options{PrecondKind: PrecondAMG, PrecondDiag: diagOf(op)}); err != nil || !st.Converged || built != PrecondAMG {
		t.Fatalf("rung through the builder: %v %+v, built %q", err, st, built)
	}
}
