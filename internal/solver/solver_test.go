package solver

import (
	"errors"
	"math"
	"testing"
)

// CG solves A·x = b for symmetric positive definite A: one CompileCG and
// one Solve on a itself when it is a ProgramSpace, else on a SliceSpace
// around it working in place on x and b.
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

// denseOp is a dense test operator.
type denseOp struct{ a [][]float64 }

func (d *denseOp) Size() int { return len(d.a) }

func (d *denseOp) Diagonal() []float64 {
	diag := make([]float64, len(d.a))
	for i := range d.a {
		diag[i] = d.a[i][i]
	}
	return diag
}

func (d *denseOp) Apply(dst, x []float64) error {
	for i := range d.a {
		s := 0.0
		for j, v := range d.a[i] {
			s += v * x[j]
		}
		dst[i] = s
	}
	return nil
}

// spdTest returns a small SPD matrix (diagonally dominant Laplacian-like).
func spdTest(n int) *denseOp {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		a[i][i] = 4
		if i > 0 {
			a[i][i-1] = -1
		}
		if i+1 < n {
			a[i][i+1] = -1
		}
	}
	return &denseOp{a}
}

func TestCGSolvesSPD(t *testing.T) {
	op := spdTest(50)
	want := make([]float64, 50)
	for i := range want {
		want[i] = math.Sin(float64(i))
	}
	b := make([]float64, 50)
	op.Apply(b, want)
	x := make([]float64, 50)
	st, err := CG(op, x, b, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
	if len(st.History) != st.Iterations {
		t.Error("history length mismatch")
	}
}

func TestZeroRHS(t *testing.T) {
	op := spdTest(10)
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if _, err := CG(op, x, make([]float64, 10), Options{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero RHS should give zero solution")
		}
	}
}

func TestSizeMismatch(t *testing.T) {
	op := spdTest(5)
	if _, err := CG(op, make([]float64, 4), make([]float64, 5), Options{}); err == nil {
		t.Error("CG accepted mismatched x")
	}
	if _, err := CG(op, make([]float64, 5), make([]float64, 6), Options{}); err == nil {
		t.Error("CG accepted mismatched b")
	}
}

func TestNotConverged(t *testing.T) {
	op := spdTest(60)
	b := make([]float64, 60)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, 60)
	_, err := CG(op, x, b, Options{MaxIter: 2, Tol: 1e-14})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
}

func TestJacobiPrecondRejectsZeroDiagonal(t *testing.T) {
	if err := CheckPrecond(3, PrecondJacobi, []float64{1, 0, 2}); err == nil {
		t.Error("zero diagonal accepted")
	}
	if err := CheckPrecond(4, PrecondJacobi, []float64{1, 2, 3}); err == nil {
		t.Error("a 3-entry diagonal accepted for a 4-row operator")
	}
}
