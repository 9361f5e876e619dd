package solver

import (
	"math"
	"testing"
)

// Property tests over randomized systems — the middle of the test pyramid:
// deterministic seeded generators, invariants asserted over many instances.

// propRand is a splitmix64 stream for deterministic random systems.
type propRand uint64

func (r *propRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [-1, 1).
func (r *propRand) float() float64 { return float64(r.next()>>11)/float64(1<<52) - 1 }

// randomSPD builds a random symmetric positive definite system: random
// symmetric off-diagonals, diagonal = twice the row sum of |off-diagonal|
// plus a random positive margin (strong diagonal dominance ⇒ SPD with the
// Jacobi-preconditioned spectrum pinned inside (1/2, 3/2)), with badly
// scaled rows so the Jacobi preconditioner has work to do.
func randomSPD(n int, seed uint64) (*denseOp, []float64) {
	rng := propRand(seed)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.next()%4 != 0 { // sparse-ish coupling
				continue
			}
			v := rng.float()
			a[i][j], a[j][i] = v, v
		}
	}
	scale := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := range a[i] {
			sum += math.Abs(a[i][j])
		}
		a[i][i] = 2*sum + 0.5 + rng.float()*0.25
		scale[i] = math.Pow(10, float64(rng.next()%4))
	}
	// Symmetric scaling D^{1/2}·A·D^{1/2}: keeps the matrix SPD and the
	// Jacobi-preconditioned spectrum unchanged while making the raw system
	// badly scaled.
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := range a[i] {
			a[i][j] *= math.Sqrt(scale[i] * scale[j])
		}
		diag[i] = a[i][i]
	}
	return &denseOp{a}, diag
}

// gaussSolve is a tiny dense reference solver (partial pivoting) for
// cross-checking Krylov solutions on random systems.
func gaussSolve(t *testing.T, op *denseOp, b []float64) []float64 {
	t.Helper()
	n := len(op.a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), op.a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		m[col], m[piv] = m[piv], m[col]
		if m[col][col] == 0 {
			t.Fatal("singular reference system")
		}
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x
}

func TestCGRandomSPDConvergesMonotonically(t *testing.T) {
	// Property: on randomized diagonally dominant SPD systems,
	// Jacobi-preconditioned CG converges below tolerance with a monotone
	// non-increasing preconditioned residual norm √(rᵀM⁻¹r). (The raw
	// 2-norm ‖r‖ is NOT monotone on badly row-scaled systems — CG only
	// controls the error A-norm — which is exactly why the preconditioned
	// norm is the quantity to watch.)
	for seed := uint64(0); seed < 25; seed++ {
		n := 20 + int(seed%3)*15
		op, diag := randomSPD(n, seed*7919+1)
		rng := propRand(seed * 104729)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.float()
		}
		// Jacobi built as a rung, so the reference space hands every
		// application to a wrapper that records the preconditioned residual
		// norm on the current residual.
		var precNorms []float64
		space := &SliceSpace{Operator: op, Rung: func(_ PrecondKind, diag []float64) (func(z, r []float64), error) {
			return func(z, r []float64) {
				prec := 0.0
				for i := range z {
					z[i] = (1 / diag[i]) * r[i]
					prec += z[i] * r[i]
				}
				precNorms = append(precNorms, math.Sqrt(prec))
			}, nil
		}}
		x := make([]float64, n)
		st, err := CG(space, x, b, Options{Tol: 1e-10, MaxIter: 400, PrecondKind: PrecondSSOR, PrecondDiag: diag})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !st.Converged || st.Residual > 1e-10 {
			t.Fatalf("seed %d: not converged below tolerance: %+v", seed, st)
		}
		for k := 1; k < len(precNorms); k++ {
			if precNorms[k] > precNorms[k-1] {
				t.Fatalf("seed %d: preconditioned residual norm increased at application %d: %g → %g",
					seed, k, precNorms[k-1], precNorms[k])
			}
		}
		// Cross-check the solution against dense elimination.
		want := gaussSolve(t, op, b)
		scale := 0.0
		for _, w := range want {
			if a := math.Abs(w); a > scale {
				scale = a
			}
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-7*scale {
				t.Fatalf("seed %d: x[%d] = %g, dense reference %g", seed, i, x[i], want[i])
			}
		}
	}
}
