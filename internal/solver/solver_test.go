package solver

import (
	"errors"
	"math"
	"testing"
)

// denseOp is a dense test operator.
type denseOp struct{ a [][]float64 }

func (d *denseOp) Size() int { return len(d.a) }
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
	if !st.Converged {
		t.Fatal("CG did not converge")
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
	st, err := CG(op, x, make([]float64, 10), Options{})
	if err != nil || !st.Converged {
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

func TestJacobiPrecondSpeedsUpCG(t *testing.T) {
	// Badly scaled SPD system: Jacobi should cut iterations.
	n := 64
	a := make([][]float64, n)
	diag := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		scale := math.Pow(10, float64(i%4))
		a[i][i] = 4 * scale
		diag[i] = 4 * scale
		if i > 0 {
			a[i][i-1] = -scale / 2
		}
		if i+1 < n {
			a[i][i+1] = -scale / 2
		}
	}
	// Symmetrize.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := (a[i][j] + a[j][i]) / 2
			a[i][j], a[j][i] = m, m
		}
	}
	op := &denseOp{a}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	plain, err := CG(op, make([]float64, n), b, Options{Tol: 1e-10, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	prec, err := CG(op, make([]float64, n), b, Options{Tol: 1e-10, MaxIter: 2000, PrecondDiag: diag})
	if err != nil {
		t.Fatal(err)
	}
	if prec.Iterations >= plain.Iterations {
		t.Errorf("Jacobi did not help: %d vs %d iterations", prec.Iterations, plain.Iterations)
	}
}

func TestJacobiPrecondRejectsZeroDiagonal(t *testing.T) {
	if err := CheckPrecond(3, PrecondJacobi, []float64{1, 0, 2}); err == nil {
		t.Error("zero diagonal accepted")
	}
}
