package massivefv_test

import (
	"fmt"

	"repro/massivefv"
)

// ExampleSolveUnstructured solves one implicit pressure step on a refined
// radial mesh split into two RCB parts, selecting the Chebyshev rung of the
// preconditioner ladder through SolverOptions.PrecondKind. The facade
// supplies the matrix diagonal itself, so the rung runs part-resident: one
// scatter in, one gather out, every Krylov operation a fused phase on the
// partitioned runtime.
func ExampleSolveUnstructured() {
	u, err := massivefv.NewRadialMesh(massivefv.DefaultRadialOptions())
	if err != nil {
		fmt.Println("mesh:", err)
		return
	}
	part, err := massivefv.PartitionRCB(u, 1) // 1 bisection level → 2 parts
	if err != nil {
		fmt.Println("partition:", err)
		return
	}

	// A balanced injector/producer pair as the right-hand side.
	b := make([]float64, u.NumCells)
	b[0], b[u.NumCells-1] = 2, -2

	opts := massivefv.SolverOptions{PrecondKind: massivefv.PrecondChebyshev}
	x, _, err := massivefv.SolveUnstructured(u, part, massivefv.DefaultFluid(), 3600, b, opts)
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	fmt.Println("converged:", err == nil)
	fmt.Println("update covers every cell:", len(x) == u.NumCells)
	// Output:
	// converged: true
	// update covers every cell: true
}
