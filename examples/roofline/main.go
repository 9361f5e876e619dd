// Roofline example: regenerate both panels of the paper's Fig. 8 from
// measured counters — the CS-2 dual-resource roofline (local memory +
// fabric) and the A100 streaming roofline — and print the ASCII charts.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/mesh"
)

func main() {
	cfg := bench.Config{FuncDims: mesh.Dims{Nx: 10, Ny: 8, Nz: 6}, FuncApps: 2}
	fig, err := bench.RunFig8(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := fig.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("The memory dot sits on the bandwidth diagonal (bandwidth-bound);")
	fmt.Println("the fabric dot sits left of the compute peak (compute-bound);")
	fmt.Println("the A100 dot is memory-bound at ~2.1 FLOPs/Byte — the paper's Fig. 8 shape.")
}
