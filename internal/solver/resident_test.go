package solver

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// naiveCG is the textbook recurrence written as plainly as possible — slices,
// one loop, left-to-right sums, no programs, no spaces. It is the independent
// statement the phase programs are checked against: a solve through
// Resident.Solve on a SliceSpace must reproduce it bit for bit. It is
// preconditioned by Jacobi on a's diagonal, as every solve is.
func naiveCG(a Operator, x, b []float64, tol float64, maxIter int) (*Stats, error) {
	n := a.Size()
	diag := a.Diagonal()
	pre := func(z, r []float64) {
		for i := range z {
			z[i] = (1 / diag[i]) * r[i]
		}
	}
	r, z, ap := make([]float64, n), make([]float64, n), make([]float64, n)
	normB := math.Sqrt(dot(b, b))
	a.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	pre(z, r)
	p := append([]float64(nil), z...)
	rz := dot(r, z)
	st := &Stats{}
	for k := 0; k < maxIter; k++ {
		a.Apply(ap, p)
		pap := dot(p, ap)
		if pap == 0 {
			return st, ErrBreakdown
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		st.Iterations = k + 1
		st.Residual = math.Sqrt(dot(r, r)) / normB
		st.History = append(st.History, st.Residual)
		if st.Residual <= tol {
			return st, nil
		}
		pre(z, r)
		rzNew := dot(r, z)
		for i := range p {
			p[i] = z[i] + rzNew/rz*p[i]
		}
		rz = rzNew
	}
	return st, ErrNotConverged
}

// matchesGauss checks x against dense elimination to 1e-10 of the solution's
// scale.
func matchesGauss(t *testing.T, op *denseOp, x, b []float64) {
	t.Helper()
	want := gaussSolve(t, op, b)
	scale := 0.0
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-10*scale {
			t.Fatalf("x[%d] = %g, dense elimination %g", i, x[i], want[i])
		}
	}
}

// sameSolve asserts two solves agree bit for bit: outcome, iteration count,
// residual history and solution.
func sameSolve(t *testing.T, what string, stA *Stats, errA error, xa []float64, stB *Stats, errB error, xb []float64) {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s: error mismatch: %v vs %v", what, errA, errB)
	}
	if stA.Iterations != stB.Iterations {
		t.Fatalf("%s: %d its vs %d its", what, stA.Iterations, stB.Iterations)
	}
	for k := range stA.History {
		if stA.History[k] != stB.History[k] {
			t.Fatalf("%s: history[%d] differs: %g vs %g", what, k, stA.History[k], stB.History[k])
		}
	}
	for i := range xa {
		if xa[i] != xb[i] {
			t.Fatalf("%s: x[%d] differs: %g vs %g", what, i, xa[i], xb[i])
		}
	}
}

func TestResidentCGMatchesSlicePathBitExact(t *testing.T) {
	// The CG program is textbook CG expression for expression: a solve through
	// Resident.Solve on a SliceSpace reproduces naiveCG bit-for-bit —
	// iterations, histories, solution — under the operator's Jacobi
	// preconditioning, and lands on the dense-elimination solution.
	for _, seed := range []uint64{1, 7, 42} {
		op, b := randomSPD(24, seed)
		xs := make([]float64, op.Size())
		stS, errS := naiveCG(op, xs, b, 1e-13, 300)
		xr := make([]float64, op.Size())
		stR, errR := CG(op, xr, b, Options{Tol: 1e-13, MaxIter: 300})
		sameSolve(t, fmt.Sprintf("seed %d", seed), stS, errS, xs, stR, errR, xr)
		if errR != nil {
			t.Fatalf("seed %d: %v", seed, errR)
		}
		matchesGauss(t, op, xr, b)
	}
}

func TestResidentZeroRHS(t *testing.T) {
	// The zero-b early exit zeroes x.
	op, _ := randomSPD(8, 5)
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	st, err := CG(op, x, make([]float64, 8), Options{})
	if err != nil {
		t.Fatalf("zero RHS: %v %+v", err, st)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %g after zero-RHS solve", i, v)
		}
	}
}

func TestPrecondClosureForcesSlicePath(t *testing.T) {
	// A z = M⁻¹·r closure over global slices is no solver option any more: it
	// reaches a solve only as what a SliceSpace's Rung field builds for an
	// operator-built kind — and there it is honoured.
	op, b := randomSPD(16, 9)
	calls := 0
	space := &SliceSpace{Operator: op, Rung: func(PrecondKind, []float64) (func(z, r []float64), error) {
		return func(z, r []float64) { calls++; copy(z, r) }, nil
	}}
	x := make([]float64, op.Size())
	st, err := CG(space, x, b, Options{Tol: 1e-10, MaxIter: 300, PrecondKind: PrecondChebyshev})
	if err != nil {
		t.Fatalf("cg with a Rung closure failed: %v %+v", err, st)
	}
	if calls == 0 {
		t.Errorf("cg never invoked the Rung closure")
	}
}

func TestResidentErrorPathsMirrorSlicePath(t *testing.T) {
	// The exits that are not plain convergence: iteration exhaustion (best
	// iterate still in x, the textbook recurrence's to the bit), Krylov
	// breakdown, and an operator whose diagonal cannot precondition.
	t.Run("not converged", func(t *testing.T) {
		op, b := randomSPD(24, 21)
		opts := Options{Tol: 1e-14, MaxIter: 3}
		xs := make([]float64, op.Size())
		_, errS := naiveCG(op, xs, b, opts.Tol, opts.MaxIter)
		xr := make([]float64, op.Size())
		_, errR := CG(op, xr, b, opts)
		if !errors.Is(errS, ErrNotConverged) || !errors.Is(errR, ErrNotConverged) {
			t.Fatalf("want ErrNotConverged from both, got textbook %v, program %v", errS, errR)
		}
		for i := range xs {
			if xs[i] != xr[i] {
				t.Fatalf("best iterate differs at %d: %g vs %g", i, xs[i], xr[i])
			}
		}
	})
	t.Run("breakdown", func(t *testing.T) {
		// The indefinite diag(1, −1, 1, −1, …) passes the diagonal check, and
		// with b = 1 its first direction p = D⁻¹b = (1, −1, …) gives pᵀAp = 0.
		n := 6
		indef := &denseOp{a: make([][]float64, n)}
		b := make([]float64, n)
		for i := range indef.a {
			indef.a[i] = make([]float64, n)
			indef.a[i][i] = float64(1 - 2*(i%2))
			b[i] = 1
		}
		if _, err := CG(indef, make([]float64, n), b, Options{}); !errors.Is(err, ErrBreakdown) {
			t.Fatalf("CG on an indefinite matrix: want ErrBreakdown, got %v", err)
		}
	})
	t.Run("bad diagonal", func(t *testing.T) {
		op, b := randomSPD(8, 33)
		for i := range op.a {
			op.a[i][i] = 0
		}
		if _, err := CG(op, make([]float64, op.Size()), b, Options{}); err == nil {
			t.Error("CG accepted an operator with a zero diagonal")
		}
	})
}

func TestResidentSolveRespectsInitialGuess(t *testing.T) {
	// A warm start: the set-up program applies A to the loaded x, not to zero.
	op, b := randomSPD(16, 13)
	guess := make([]float64, op.Size())
	for i := range guess {
		guess[i] = math.Sin(float64(i))
	}
	xs := append([]float64(nil), guess...)
	stS, errS := naiveCG(op, xs, b, 1e-10, 300)
	xr := append([]float64(nil), guess...)
	stR, errR := CG(op, xr, b, Options{Tol: 1e-10, MaxIter: 300})
	if errS != nil || errR != nil {
		t.Fatal(errS, errR)
	}
	sameSolve(t, "warm start", stS, errS, xs, stR, errR, xr)
}

func TestNonFiniteRHSIsBreakdown(t *testing.T) {
	// A NaN or ±Inf entry in b makes ‖b‖ non-finite; every later check would
	// compare against NaN and never fire. The solve stops in the set-up program
	// with ErrBreakdown, before x is touched.
	op, _ := randomSPD(8, 5)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := []float64{1, 2, bad, 4, 5, 6, 7, 8}
		x := []float64{8, 7, 6, 5, 4, 3, 2, 1}
		_, err := CG(op, x, b, Options{MaxIter: 5})
		if !errors.Is(err, ErrBreakdown) || !strings.Contains(err.Error(), "non-finite right-hand side") {
			t.Errorf("b[2] = %v: err = %v, want the non-finite right-hand side breakdown", bad, err)
		}
		for i, v := range x {
			if v != float64(8-i) {
				t.Errorf("b[2] = %v: x[%d] = %g, touched", bad, i, v)
			}
		}
	}
}

// recordingSpace is a SliceSpace that notes every OpKind it is asked to
// compile.
type recordingSpace struct {
	SliceSpace
	seen map[OpKind]bool
}

func (r *recordingSpace) CompileProgram(ops []ProgOp) (Program, error) {
	for i := range ops {
		r.seen[ops[i].Kind] = true
	}
	return r.SliceSpace.CompileProgram(ops)
}

func TestCompiledCGEmitsEveryOpKind(t *testing.T) {
	// The OpKind enum is what compiled CG emits and nothing else: the fused
	// shape (Jacobi) and the rung shape (an operator-built kind) together use
	// every constant, so an op no program runs cannot sit in every
	// ProgramSpace unnoticed. The enum's end is where the reference space
	// stops accepting kinds.
	op, _ := randomSPD(8, 5)
	seen := map[OpKind]bool{}
	for _, kind := range []PrecondKind{PrecondJacobi, PrecondChebyshev} {
		space := &recordingSpace{seen: seen, SliceSpace: SliceSpace{Operator: op,
			Rung: func(PrecondKind, []float64) (func(z, r []float64), error) {
				return func(z, r []float64) { copy(z, r) }, nil
			}}}
		if _, err := CompileCG(space, Options{PrecondKind: kind}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	ref := &SliceSpace{Operator: op}
	if _, err := ref.CompileProgram([]ProgOp{{Kind: OpPrecondDot + 1}}); err == nil {
		t.Fatal("OpPrecondDot is no longer the last OpKind — extend this sweep")
	}
	for k := OpApply; k <= OpPrecondDot; k++ {
		if _, err := ref.CompileProgram([]ProgOp{{Kind: k}}); err != nil {
			t.Errorf("op kind %d: the reference space refuses it: %v", k, err)
		}
		if !seen[k] {
			t.Errorf("op kind %d is emitted by neither shape of compiled CG", k)
		}
	}
	if len(seen) != int(OpPrecondDot)+1 {
		t.Errorf("compiled CG emits %d kinds, the enum has %d", len(seen), int(OpPrecondDot)+1)
	}
}
