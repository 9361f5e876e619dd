// Communication-pattern demo: visualize §5.2's exchanges on a tiny fabric.
// Every PE stamps its column with its own coordinates; after one exchange,
// the demo verifies each PE holds exactly its eight in-plane neighbors'
// stamps — cardinal columns directly, diagonal columns through the
// clockwise-turning intermediaries — and prints who relayed what. It also
// runs the paper's Fig. 6 switch-command broadcast.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/physics"
)

func main() {
	// Part 1: the Fig. 6 eastward broadcast with runtime router switching.
	fmt.Println("-- Fig. 6: eastward broadcast via router switch commands --")
	f, err := fabric.New(fabric.Config{Width: 8, Height: 1})
	if err != nil {
		log.Fatal(err)
	}
	values := []float32{10, 11, 12, 13, 14, 15, 16, 17}
	got, err := fabric.EastwardBroadcast(f, values)
	if err != nil {
		log.Fatal(err)
	}
	for x := 1; x < len(values); x++ {
		status := "ok"
		if got[x] != values[x-1] {
			status = "WRONG"
		}
		fmt.Printf("  PE %d received %.0f (%s)\n", x, got[x], status)
	}
	tot := f.Totals()
	fmt.Printf("  switch commands applied: %d\n\n", tot.Commands)

	// Part 2: the full cardinal + diagonal exchange of the flux engine.
	// A uniform mesh with zero gravity and a pressure field that encodes
	// the source coordinates: every face flux then reveals which neighbor's
	// column arrived where.
	fmt.Println("-- §5.2: cardinal + clockwise-relayed diagonal exchange --")
	dims := mesh.Dims{Nx: 5, Ny: 5, Nz: 3}
	opts := mesh.DefaultGeoOptions()
	opts.Model = mesh.GeoUniform
	m, err := mesh.Build(dims, mesh.DefaultSpacing(), opts)
	if err != nil {
		log.Fatal(err)
	}
	// Stamp: p(x,y) = base + 100·x + 10·y (constant per column).
	for z := 0; z < dims.Nz; z++ {
		for y := 0; y < dims.Ny; y++ {
			for x := 0; x < dims.Nx; x++ {
				m.Pressure[m.Index(x, y, z)] = 2e7 + float64(100*x+10*y)
			}
		}
	}
	fl := physics.DefaultFluid()
	fl.Gravity = 0

	res, err := core.RunFabric(m, fl, core.DefaultOptions(1))
	if err != nil {
		log.Fatal(err)
	}

	// Verify against the flat engine (which reads neighbors directly): if
	// any relay delivered the wrong column, the residuals would differ.
	res2, err := core.RunFlatParallel(m, fl, core.DefaultOptions(1))
	if err != nil {
		log.Fatal(err)
	}
	for i := range res.Residual {
		if res.Residual[i] != res2.Residual[i] {
			log.Fatalf("relayed data mismatch at cell %d", i)
		}
	}
	fmt.Println("  fabric exchange delivered every neighbor column correctly (bit-exact vs direct reads)")

	fmt.Println("\n  relay map for the center PE (2,2), per §5.2.2:")
	relays := []struct{ corner, inter, turn string }{
		{"NW (1,1)", "N (2,1)", "eastbound → southbound"},
		{"NE (3,1)", "E (3,2)", "southbound → westbound"},
		{"SE (3,3)", "S (2,3)", "westbound → northbound"},
		{"SW (1,3)", "W (1,2)", "northbound → eastbound"},
	}
	for _, r := range relays {
		fmt.Printf("    corner %s → intermediary %s (%s)\n", r.corner, r.inter, r.turn)
	}
	if res.FabricTotals != nil {
		fmt.Printf("\n  wavelets: %d sent from ramps, %d delivered to PEs, %d left unread\n",
			res.FabricTotals.SentFromRamp, res.FabricTotals.DeliveredToPE, res.FabricTotals.DroppedAtStop)
	}
	if res.Interior != nil {
		fmt.Printf("  interior PE fabric loads per cell: %.0f (= 8 neighbors x 2 values, Table 4's FMOV)\n",
			res.Interior.FabricLoads)
	}
}
