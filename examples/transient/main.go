// Transient implicit simulation: the full workflow the paper's flux kernel
// sits inside (§2). Ten backward-Euler pressure steps of an injector/
// producer doublet, each solved by preconditioned CG whose operator
// applications run through the dataflow kernel — hundreds of "applications
// of Algorithm 1", exactly the execution pattern the paper times.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/massivefv"
)

func main() {
	dims := massivefv.Dims{Nx: 14, Ny: 12, Nz: 5}
	m, err := massivefv.BuildMesh(dims)
	if err != nil {
		log.Fatal(err)
	}
	fl := massivefv.DefaultFluid()
	p0 := m.Pressure[m.Index(3, 3, 2)]

	opts := massivefv.TransientOptions{
		Dt:    6 * 3600, // 6-hour steps
		Steps: 10,
		Wells: []massivefv.Well{
			{X: 3, Y: 3, Rate: 4.0},   // injector, 4 kg/s
			{X: 10, Y: 8, Rate: -4.0}, // producer
		},
		UseDataflowOperator: true, // all ten faces, the default stencil
	}
	res, err := massivefv.RunTransient(m, fl, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("transient run: %v cells, %d implicit steps of %.0f h\n",
		dims.Cells(), opts.Steps, opts.Dt/3600)
	fmt.Println("step  CG its  rel.residual  max Δp [bar]  mass err")
	for _, st := range res.Steps {
		fmt.Printf("%4d  %6d  %12.2e  %12.4f  %8.1e\n",
			st.Step, st.Iterations, st.Residual, st.MaxDeltaP/1e5, st.MassError)
	}
	fmt.Printf("\ndataflow kernel applications across the run: %d\n", res.OperatorApplications)
	fmt.Printf("injector cell pressure: %.2f → %.2f bar\n",
		p0/1e5, res.Pressure[m.Index(3, 3, 2)]/1e5)

	// A crude pressure map of the middle layer.
	fmt.Println("\nΔp map (middle layer; + injector side, - producer side):")
	shades := []byte("--:=+*#")
	var b strings.Builder
	mref, _ := massivefv.BuildMesh(dims)
	for y := 0; y < dims.Ny; y++ {
		for x := 0; x < dims.Nx; x++ {
			i := m.Index(x, y, 2)
			dp := res.Pressure[i] - mref.Pressure[i]
			idx := int((dp/2e5 + 3))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	fmt.Print(b.String())
}
