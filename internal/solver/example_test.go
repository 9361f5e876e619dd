package solver_test

import (
	"fmt"

	"repro/internal/solver"
)

// tridiag is a shifted 1-D Laplacian — a small SPD operator with constant
// diagonal 4 and off-diagonals -1, the textbook CG test matrix.
type tridiag struct{ n int }

func (t tridiag) Size() int { return t.n }

func (t tridiag) Diagonal() []float64 {
	diag := make([]float64, t.n)
	for i := range diag {
		diag[i] = 4
	}
	return diag
}

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

// ExampleCompileCG solves a small SPD system with Jacobi-preconditioned CG.
// The preconditioner is the operator's own diagonal (Operator.Diagonal) — it
// works with every operator: a SliceSpace around a plain Operator like this
// one runs the same compiled recurrence a partitioned solver.ProgramSpace
// runs in its own layout. The compiled Resident solves any number of
// right-hand sides.
func ExampleCompileCG() {
	a := tridiag{n: 64}
	cg, err := solver.CompileCG(&solver.SliceSpace{Operator: a}, solver.Options{Tol: 1e-10})
	if err != nil {
		fmt.Println("compile failed:", err)
		return
	}
	b := make([]float64, a.n)
	b[0], b[a.n-1] = 1, 1
	x := make([]float64, a.n)
	st, err := cg.Solve(x, b, nil)
	if err != nil {
		fmt.Println("solve failed:", err)
		return
	}
	// Float values and exact iteration counts vary across architectures
	// (FMA contraction), so the example asserts ranges instead.
	fmt.Println("converged:", err == nil)
	fmt.Println("iterations within budget:", st.Iterations > 0 && st.Iterations <= a.n)
	fmt.Println("residual below tolerance:", st.Residual <= 1e-10)
	// Output:
	// converged: true
	// iterations within budget: true
	// residual below tolerance: true
}
