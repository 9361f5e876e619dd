package solver

import (
	"math"
	"strings"
	"testing"
)

func TestPrecondKindsLadder(t *testing.T) {
	kinds := PrecondKinds()
	want := []PrecondKind{PrecondJacobi, PrecondChebyshev, PrecondAMG}
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
	if !PrecondKind("").valid() {
		t.Error("the zero kind (Jacobi) does not validate")
	}
	if PrecondKind("nonsense").valid() {
		t.Error("an unknown kind validates")
	}
	if PrecondJacobi.operatorBuilt() || PrecondKind("").operatorBuilt() {
		t.Error("jacobi must not require operator cooperation")
	}
	for _, k := range []PrecondKind{PrecondChebyshev, PrecondAMG} {
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
	// it, and an operator whose own diagonal holds a zero, NaN or ±Inf entry
	// is refused by index, wrapped or not.
	a := spdTest(8)
	b := make([]float64, 8)
	b[0] = 1
	x := make([]float64, 8)
	if _, err := CG(a, x, b, Options{PrecondKind: "nonsense"}); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, kind := range []PrecondKind{PrecondChebyshev, PrecondAMG} {
		_, err := CG(a, x, b, Options{PrecondKind: kind})
		if err == nil || !strings.Contains(err.Error(), "cannot build") {
			t.Errorf("%s on a plain operator: err = %v, want a cannot-build error", kind, err)
		}
	}
	for _, bad := range badDiagonals {
		corrupt := spdTest(8)
		corrupt.a[5][5] = bad
		for name, op := range map[string]Operator{"slice": corrupt, "resident": &SliceSpace{Operator: corrupt}} {
			if _, err := CG(op, x, b, Options{}); err == nil || !strings.Contains(err.Error(), "at 5") {
				t.Errorf("%s path, diagonal entry %v: err = %v, want a rejection naming index 5", name, bad, err)
			}
		}
	}
}

func TestPrecondKindValidationOnResidentPath(t *testing.T) {
	// An explicit SliceSpace: without a Rung builder the operator-built rungs
	// surface its SetPrecond error; with a builder the kind and the
	// operator's validated diagonal reach it.
	op := spdTest(8)
	d := &SliceSpace{Operator: op}
	b := make([]float64, 8)
	b[0] = 1
	x := make([]float64, 8)
	if _, err := CG(d, x, b, Options{PrecondKind: "nonsense"}); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, kind := range []PrecondKind{PrecondChebyshev, PrecondAMG} {
		_, err := CG(d, x, b, Options{PrecondKind: kind})
		if err == nil || !strings.Contains(err.Error(), "cannot build") {
			t.Errorf("%s on a rung-less SliceSpace: err = %v, want its SetPrecond error", kind, err)
		}
	}
	for _, bad := range badDiagonals {
		corrupt := spdTest(8)
		corrupt.a[2][2] = bad
		sp := &SliceSpace{Operator: corrupt}
		if err := sp.SetPrecond(PrecondJacobi); err == nil || !strings.Contains(err.Error(), "at 2") {
			t.Errorf("SetPrecond with diagonal entry %v: err = %v, want a rejection naming index 2", bad, err)
		}
	}
	// The supported kinds still solve.
	if _, err := CG(d, x, b, Options{PrecondKind: PrecondJacobi}); err != nil {
		t.Fatalf("jacobi-by-kind failed: %v", err)
	}
	var built PrecondKind
	var got []float64
	d.Rung = func(kind PrecondKind, diag []float64) (func(z, r []float64), error) {
		built, got = kind, diag
		return func(z, r []float64) { copy(z, r) }, nil
	}
	if st, err := CG(d, x, b, Options{PrecondKind: PrecondAMG}); err != nil || built != PrecondAMG {
		t.Fatalf("rung through the builder: %v %+v, built %q", err, st, built)
	}
	if len(got) != 8 || got[0] != 4 {
		t.Errorf("the builder got diagonal %v, want the operator's", got)
	}
}
