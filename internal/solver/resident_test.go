package solver

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// sliceSpace is the test-only ProgramSpace: denseOp's matrix, the identity
// layout, and programs executed op by op over plain slices with left-to-right
// inner products. It is a fake, not a second implementation — it exists to
// prove the resident CG/BiCGStab programs reproduce the slice recurrences
// exactly, independent of any partitioned runtime.
type sliceSpace struct {
	*denseOp
	vecs [][]float64
	inv  []float64 // nil = identity preconditioner
}

func (d *sliceSpace) Reserve(n int) {
	for len(d.vecs) < n {
		d.vecs = append(d.vecs, make([]float64, d.Size()))
	}
}

func (d *sliceSpace) Load2(v1 Vec, s1 []float64, v2 Vec, s2 []float64) {
	copy(d.vecs[v1], s1)
	copy(d.vecs[v2], s2)
}

func (d *sliceSpace) Store(dst []float64, v Vec) { copy(dst, d.vecs[v]) }

func (d *sliceSpace) SetPrecond(kind PrecondKind, diag []float64) error {
	if kind.operatorBuilt() {
		return fmt.Errorf("sliceSpace: cannot build the %q preconditioner", kind)
	}
	d.inv = nil
	if diag == nil {
		return nil
	}
	inv := make([]float64, len(diag))
	for i, v := range diag {
		if v == 0 || math.IsNaN(v) {
			return errors.New("sliceSpace: zero/NaN diagonal entry")
		}
		inv[i] = 1 / v
	}
	d.inv = inv
	return nil
}

func (d *sliceSpace) CompileProgram(ops []ProgOp) (Program, error) {
	return &sliceProgram{d: d, ops: ops}, nil
}

type sliceProgram struct {
	d   *sliceSpace
	ops []ProgOp
}

func (p *sliceProgram) Run() (bool, error) {
	d := p.d
	v := func(h Vec) []float64 { return d.vecs[h] }
	precond := func(z, r []float64) {
		copy(z, r)
		for i := range d.inv {
			z[i] = d.inv[i] * r[i]
		}
	}
	cgStep := func(op *ProgOp) {
		axpy(v(op.V1), *op.A1, v(op.V2))
		axpy(v(op.V3), -*op.A1, v(op.V4))
		*op.R1 = dot(v(op.V3), v(op.V3))
	}
	for i := range p.ops {
		op := &p.ops[i]
		switch op.Kind {
		case OpApply, OpApplyDot:
			if err := d.Apply(v(op.V1), v(op.V2)); err != nil {
				return false, err
			}
			if op.Kind == OpApplyDot {
				*op.R1 = dot(v(op.V3), v(op.V1))
			}
		case OpDot:
			*op.R1 = dot(v(op.V1), v(op.V2))
		case OpDot2:
			*op.R1, *op.R2 = dot(v(op.V1), v(op.V2)), dot(v(op.V1), v(op.V3))
		case OpCopy:
			copy(v(op.V1), v(op.V2))
		case OpAxpy:
			axpy(v(op.V1), *op.A1, v(op.V2))
		case OpAxpy2:
			y, x, z := v(op.V1), v(op.V2), v(op.V3)
			for i := range y {
				y[i] += *op.A1*x[i] + *op.A2*z[i]
			}
		case OpXpby:
			y, x := v(op.V1), v(op.V2)
			for i := range y {
				y[i] = x[i] + *op.A1*y[i]
			}
		case OpSubAxpyDot:
			dst, a, b := v(op.V1), v(op.V2), v(op.V3)
			for i := range dst {
				dst[i] = a[i] - *op.A1*b[i]
			}
			*op.R1 = dot(dst, dst)
		case OpCGStep:
			cgStep(op)
		case OpCGStepPre:
			cgStep(op)
			precond(v(op.V5), v(op.V3))
			*op.R2 = dot(v(op.V3), v(op.V5))
		case OpBicgP:
			pp, r, vv := v(op.V1), v(op.V2), v(op.V3)
			for i := range pp {
				pp[i] = r[i] + *op.A1*(pp[i]-*op.A2*vv[i])
			}
		case OpPrecond, OpPrecondDot:
			precond(v(op.V1), v(op.V2))
			if op.Kind == OpPrecondDot {
				*op.R1 = dot(v(op.V2), v(op.V1))
			}
		default:
			return false, fmt.Errorf("sliceSpace: unknown op kind %d", op.Kind)
		}
		if op.Action != nil {
			stop, err := op.Action()
			if err != nil {
				return false, err
			}
			if stop {
				return true, nil
			}
		}
	}
	return false, nil
}

var _ ProgramSpace = (*sliceSpace)(nil)

// diagOf extracts the matrix diagonal of a dense operator.
func diagOf(d *denseOp) []float64 {
	diag := make([]float64, d.Size())
	for i := range d.a {
		diag[i] = d.a[i][i]
	}
	return diag
}

func TestResidentCGMatchesSlicePathBitExact(t *testing.T) {
	// The resident recurrence must be the slice recurrence expression for
	// expression: CG through a conforming ProgramSpace reproduces CG through
	// the plain Operator bit-for-bit — iterations, histories, solution —
	// with and without Jacobi preconditioning.
	for _, seed := range []uint64{1, 7, 42} {
		op, b := randomSPD(24, seed)
		for _, jacobi := range []bool{false, true} {
			var diag []float64
			if jacobi {
				diag = diagOf(op)
			}
			opts := Options{Tol: 1e-10, MaxIter: 300, PrecondDiag: diag}
			xs := make([]float64, op.Size())
			stS, errS := CG(op, xs, b, opts)
			xr := make([]float64, op.Size())
			stR, errR := CG(&sliceSpace{denseOp: op}, xr, b, opts)
			if (errS == nil) != (errR == nil) {
				t.Fatalf("seed %d jacobi=%v: error mismatch: slice %v, resident %v", seed, jacobi, errS, errR)
			}
			if stS.Iterations != stR.Iterations || stS.Converged != stR.Converged {
				t.Fatalf("seed %d jacobi=%v: slice %d its (conv %v), resident %d its (conv %v)",
					seed, jacobi, stS.Iterations, stS.Converged, stR.Iterations, stR.Converged)
			}
			for k := range stS.History {
				if stS.History[k] != stR.History[k] {
					t.Fatalf("seed %d jacobi=%v: history[%d] differs: %g vs %g",
						seed, jacobi, k, stS.History[k], stR.History[k])
				}
			}
			for i := range xs {
				if xs[i] != xr[i] {
					t.Fatalf("seed %d jacobi=%v: x[%d] differs: %g vs %g", seed, jacobi, i, xs[i], xr[i])
				}
			}
		}
	}
}

func TestResidentBiCGStabMatchesSlicePathBitExact(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		op, b := randomSPD(20, seed)
		// Nonsymmetric perturbation exercises the full BiCGStab recurrence.
		op.a[1][2] += 0.25
		op.a[5][0] -= 0.125
		opts := Options{Tol: 1e-10, MaxIter: 400, PrecondDiag: diagOf(op)}
		xs := make([]float64, op.Size())
		stS, errS := BiCGStab(op, xs, b, opts)
		xr := make([]float64, op.Size())
		stR, errR := BiCGStab(&sliceSpace{denseOp: op}, xr, b, opts)
		if (errS == nil) != (errR == nil) {
			t.Fatalf("seed %d: error mismatch: slice %v, resident %v", seed, errS, errR)
		}
		if stS.Iterations != stR.Iterations || stS.Converged != stR.Converged {
			t.Fatalf("seed %d: slice %d its, resident %d its", seed, stS.Iterations, stR.Iterations)
		}
		for k := range stS.History {
			if stS.History[k] != stR.History[k] {
				t.Fatalf("seed %d: history[%d] differs: %g vs %g", seed, k, stS.History[k], stR.History[k])
			}
		}
		for i := range xs {
			if xs[i] != xr[i] {
				t.Fatalf("seed %d: x[%d] differs: %g vs %g", seed, i, xs[i], xr[i])
			}
		}
	}
}

func TestResidentZeroRHS(t *testing.T) {
	// The zero-b early exit zeroes x on both paths.
	op, _ := randomSPD(8, 5)
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	st, err := CG(&sliceSpace{denseOp: op}, x, make([]float64, 8), Options{})
	if err != nil || !st.Converged {
		t.Fatalf("zero RHS: %v %+v", err, st)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %g after zero-RHS solve", i, v)
		}
	}
}

func TestPrecondClosureForcesSlicePath(t *testing.T) {
	// An Options.Precond closure works on global slices and cannot run
	// resident. There is no slice path to force on a ProgramSpace operator any
	// more: the solver must refuse the combination, before touching x, rather
	// than ignore the closure or reroute every application through a scatter
	// and gather.
	op, b := randomSPD(16, 9)
	called := false
	pre := func(z, r []float64) { called = true; copy(z, r) }
	for name, solve := range map[string]func(Operator, []float64, []float64, Options) (*Stats, error){"cg": CG, "bicgstab": BiCGStab} {
		x := make([]float64, op.Size())
		x[3] = 7
		st, err := solve(&sliceSpace{denseOp: op}, x, b, Options{Tol: 1e-10, MaxIter: 300, Precond: pre})
		if err == nil || !strings.Contains(err.Error(), "Options.Precond") {
			t.Fatalf("%s: Precond closure on a resident operator: err = %v, want an Options.Precond error", name, err)
		}
		if st != nil || called || x[3] != 7 {
			t.Errorf("%s: refused solve still ran: stats %+v, closure called %v, x[3] = %g", name, st, called, x[3])
		}
	}
	// The same closure on the plain operator is the slice path and is honored.
	x := make([]float64, op.Size())
	if st, err := CG(op, x, b, Options{Tol: 1e-10, MaxIter: 300, Precond: pre}); err != nil || !st.Converged {
		t.Fatalf("slice solve with the closure failed: %v %+v", err, st)
	}
	if !called {
		t.Error("slice path never invoked the Precond closure")
	}
}

func TestResidentErrorPathsMirrorSlicePath(t *testing.T) {
	// The exits that are not plain convergence must behave identically on
	// the two paths: iteration exhaustion (best iterate still stored to x),
	// Krylov breakdown, and a rejected preconditioner diagonal.
	t.Run("not converged", func(t *testing.T) {
		op, b := randomSPD(24, 21)
		opts := Options{Tol: 1e-14, MaxIter: 3}
		xs := make([]float64, op.Size())
		_, errS := CG(op, xs, b, opts)
		xr := make([]float64, op.Size())
		_, errR := CG(&sliceSpace{denseOp: op}, xr, b, opts)
		if !errors.Is(errS, ErrNotConverged) || !errors.Is(errR, ErrNotConverged) {
			t.Fatalf("want ErrNotConverged on both paths, got slice %v, resident %v", errS, errR)
		}
		for i := range xs {
			if xs[i] != xr[i] {
				t.Fatalf("best iterate differs at %d: %g vs %g", i, xs[i], xr[i])
			}
		}
		xb := make([]float64, op.Size())
		if _, err := BiCGStab(&sliceSpace{denseOp: op}, xb, b, opts); !errors.Is(err, ErrNotConverged) {
			t.Fatalf("resident BiCGStab: want ErrNotConverged, got %v", err)
		}
	})
	t.Run("breakdown", func(t *testing.T) {
		// The zero matrix gives pᵀAp = 0 on the first CG iteration and
		// r̂ᵀv = 0 in BiCGStab.
		n := 6
		zeroA := &denseOp{a: make([][]float64, n)}
		for i := range zeroA.a {
			zeroA.a[i] = make([]float64, n)
		}
		b := make([]float64, n)
		b[0] = 1
		if _, err := CG(&sliceSpace{denseOp: zeroA}, make([]float64, n), b, Options{}); !errors.Is(err, ErrBreakdown) {
			t.Fatalf("resident CG on zero matrix: want ErrBreakdown, got %v", err)
		}
		if _, err := BiCGStab(&sliceSpace{denseOp: zeroA}, make([]float64, n), b, Options{}); !errors.Is(err, ErrBreakdown) {
			t.Fatalf("resident BiCGStab on zero matrix: want ErrBreakdown, got %v", err)
		}
	})
	t.Run("bad diagonal", func(t *testing.T) {
		op, b := randomSPD(8, 33)
		bad := make([]float64, op.Size()) // all-zero diagonal
		opts := Options{PrecondDiag: bad}
		if _, err := CG(&sliceSpace{denseOp: op}, make([]float64, op.Size()), b, opts); err == nil {
			t.Error("resident CG accepted a zero preconditioner diagonal")
		}
		if _, err := CG(op, make([]float64, op.Size()), b, opts); err == nil {
			t.Error("slice CG accepted a zero preconditioner diagonal")
		}
		if _, err := BiCGStab(&sliceSpace{denseOp: op}, make([]float64, op.Size()), b, opts); err == nil {
			t.Error("resident BiCGStab accepted a zero preconditioner diagonal")
		}
		if _, err := BiCGStab(op, make([]float64, op.Size()), b, opts); err == nil {
			t.Error("slice BiCGStab accepted a zero preconditioner diagonal")
		}
	})
	t.Run("bicgstab early exit", func(t *testing.T) {
		// On the identity matrix BiCGStab converges at the ‖s‖ check of the
		// first iteration — the half-step exit both paths must take alike.
		n := 6
		eye := &denseOp{a: make([][]float64, n)}
		for i := range eye.a {
			eye.a[i] = make([]float64, n)
			eye.a[i][i] = 1
		}
		b := []float64{1, -2, 3, 0.5, -0.25, 4}
		xs := make([]float64, n)
		stS, errS := BiCGStab(eye, xs, b, Options{})
		xr := make([]float64, n)
		stR, errR := BiCGStab(&sliceSpace{denseOp: eye}, xr, b, Options{})
		if errS != nil || errR != nil || !stS.Converged || !stR.Converged {
			t.Fatalf("identity solve failed: %v %v %+v %+v", errS, errR, stS, stR)
		}
		if stS.Iterations != stR.Iterations {
			t.Fatalf("iterations differ: %d vs %d", stS.Iterations, stR.Iterations)
		}
		for i := range xs {
			if xs[i] != xr[i] {
				t.Fatalf("x[%d] differs: %g vs %g", i, xs[i], xr[i])
			}
		}
	})
}

func TestResidentSolveRespectsInitialGuess(t *testing.T) {
	// A warm start must behave identically on both paths (the resident
	// preamble applies A to the loaded x, not to zero).
	op, b := randomSPD(16, 13)
	guess := make([]float64, op.Size())
	for i := range guess {
		guess[i] = math.Sin(float64(i))
	}
	opts := Options{Tol: 1e-10, MaxIter: 300}
	xs := append([]float64(nil), guess...)
	stS, err := CG(op, xs, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	xr := append([]float64(nil), guess...)
	stR, err := CG(&sliceSpace{denseOp: op}, xr, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stS.Iterations != stR.Iterations {
		t.Fatalf("warm start diverged: slice %d its, resident %d", stS.Iterations, stR.Iterations)
	}
	for i := range xs {
		if xs[i] != xr[i] {
			t.Fatalf("x[%d] differs: %g vs %g", i, xs[i], xr[i])
		}
	}
}
