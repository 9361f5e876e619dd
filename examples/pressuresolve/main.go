// Pressure solve: the paper's §8 extension in action. The flux kernel
// becomes a matrix-free linear operator (one dataflow application per
// operator apply, the "1000 applications" pattern), and a Jacobi-
// preconditioned conjugate-gradient iteration solves one backward-Euler
// pressure step of Eq. (2) for an injector/producer pair.
package main

import (
	"fmt"
	"log"

	"repro/massivefv"
)

func main() {
	dims := massivefv.Dims{Nx: 16, Ny: 12, Nz: 6}
	m, err := massivefv.BuildMesh(dims)
	if err != nil {
		log.Fatal(err)
	}
	fl := massivefv.DefaultFluid()

	// One implicit pressure step of a day, frozen mobilities.
	sys, err := massivefv.NewPressureSystem(m, fl, 86400)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pressure system: %v cells, frozen mobility %.3e, SPD\n",
		dims.Cells(), sys.Mobility)

	// The matrix-free operator is the dataflow flux kernel itself.
	op := massivefv.NewDataflowOperator(m, sys, fl)
	defer op.Close()
	if err := op.Verify(); err != nil {
		log.Fatal(err)
	}

	// Injector column at (3,3), a balanced producer column mirrored across
	// the field, so the system stays compatible.
	b := make([]float64, dims.Cells())
	for z := 0; z < dims.Nz; z++ {
		b[m.Index(3, 3, z)] += 5.0 / float64(dims.Nz)
		b[m.Index(dims.Nx-4, dims.Ny-4, z)] -= 5.0 / float64(dims.Nz)
	}

	// Jacobi-preconditioned CG through the dataflow operator.
	x, st, err := massivefv.SolveCG(m, sys, fl, b, massivefv.SolverOptions{Tol: 1e-6, MaxIter: 300})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CG converged in %d iterations (rel residual %.2e),\n", st.Iterations, st.Residual)
	fmt.Println("each iteration one kernel application on the wafer")

	inj := x[m.Index(3, 3, dims.Nz/2)]
	prod := x[m.Index(dims.Nx-4, dims.Ny-4, dims.Nz/2)]
	fmt.Printf("pressure change: injector %+.3e, producer %+.3e (Pa per unit rate)\n", inj, prod)
	if inj <= 0 || prod >= 0 {
		log.Fatal("pressure response has the wrong sign")
	}

	// Sanity: the true residual, one more application of the kernel.
	ax := make([]float64, len(x))
	if err := op.Apply(ax, x); err != nil {
		log.Fatal(err)
	}
	var num, den float64
	for i := range ax {
		num += (ax[i] - b[i]) * (ax[i] - b[i])
		den += b[i] * b[i]
	}
	fmt.Printf("true residual ‖A·x − b‖²/‖b‖² through the dataflow operator: %.2e\n", num/den)
	fmt.Println("\nThe same kernel that computes fluxes serves as the Krylov operator —")
	fmt.Println("the paper's §8 path toward full implicit simulation on the wafer.")
}
