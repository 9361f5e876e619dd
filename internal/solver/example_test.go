package solver_test

import (
	"fmt"

	"repro/internal/solver"
)

// tridiag is a shifted 1-D Laplacian — a small SPD operator with constant
// diagonal 4 and off-diagonals -1, the textbook CG test matrix.
type tridiag struct{ n int }

func (t tridiag) Size() int { return t.n }

func (t tridiag) Apply(dst, x []float64) error {
	for i := range dst {
		v := 4 * x[i]
		if i > 0 {
			v -= x[i-1]
		}
		if i < t.n-1 {
			v -= x[i+1]
		}
		dst[i] = v
	}
	return nil
}

// ExampleCG solves a small SPD system with Jacobi-preconditioned CG. The
// preconditioner is the matrix diagonal handed over in Options.PrecondDiag —
// it works with every operator: CG wraps a plain Operator like this one in a
// SliceSpace and runs the same compiled recurrence a partitioned
// solver.ProgramSpace runs in its own layout.
func ExampleCG() {
	a := tridiag{n: 64}
	b := make([]float64, a.n)
	b[0], b[a.n-1] = 1, 1
	x := make([]float64, a.n)

	diag := make([]float64, a.n)
	for i := range diag {
		diag[i] = 4
	}
	st, err := solver.CG(a, x, b, solver.Options{Tol: 1e-10, PrecondDiag: diag})
	if err != nil {
		fmt.Println("solve failed:", err)
		return
	}
	// Float values and exact iteration counts vary across architectures
	// (FMA contraction), so the example asserts ranges instead.
	fmt.Println("converged:", st.Converged)
	fmt.Println("iterations within budget:", st.Iterations > 0 && st.Iterations <= a.n)
	fmt.Println("residual below tolerance:", st.Residual <= 1e-10)
	// Output:
	// converged: true
	// iterations within budget: true
	// residual below tolerance: true
}
