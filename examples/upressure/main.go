// Unstructured implicit pressure solves — the paper's §8 matrix-free Krylov
// extension running on the §9 partitioned unstructured runtime. A transient
// backward-Euler run (one Jacobi-preconditioned CG solve per step) drives an
// injector/producer pair on a refined radial mesh; the solve runs
// part-resident (one scatter in, one gather out, each application a halo
// push and one row sweep in between), and the canonical blocked reductions
// make the whole solve — residual histories, iteration counts, final field —
// bit-identical to the serial reference at every part count.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/massivefv"
)

func main() {
	opts := massivefv.DefaultRadialOptions()
	opts.Rings = 48
	opts.BaseSectors = 32
	opts.RefineEvery = 12
	um, err := massivefv.NewRadialMesh(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("radial mesh: %d cells, %d faces (max degree %d)\n\n",
		um.NumCells, len(um.Faces), um.MaxDegree())

	topts := massivefv.UTransientOptions{
		Dt:    3600, // one-hour implicit steps
		Steps: 4,
		Wells: []massivefv.UWell{
			{Cell: um.WellIndex(), Rate: 2.5},
			{Cell: um.NumCells - 1, Rate: -2.5},
		},
	}

	// Serial float64 reference: the golden baseline.
	start := time.Now()
	serial, err := massivefv.RunTransientUnstructured(um, nil, massivefv.DefaultFluid(), topts)
	if err != nil {
		log.Fatal(err)
	}
	serialTime := time.Since(start)
	serialIts := 0
	for _, st := range serial.Steps {
		serialIts += st.Iterations
	}
	fmt.Printf("serial reference: %d steps, %d CG iterations, %v\n\n",
		topts.Steps, serialIts, serialTime.Round(100*time.Microsecond))

	fmt.Println("parts  CG its  applications  halo words  msgs   time      identical")
	for _, levels := range []int{0, 1, 2, 3} {
		part, err := massivefv.PartitionRCB(um, levels)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := massivefv.RunTransientUnstructured(um, part, massivefv.DefaultFluid(), topts)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		its := 0
		for _, st := range res.Steps {
			its += st.Iterations
		}
		identical := true
		for i := range serial.Pressure {
			if res.Pressure[i] != serial.Pressure[i] {
				identical = false
				break
			}
		}
		for s := range serial.Steps {
			if res.Steps[s].Iterations != serial.Steps[s].Iterations {
				identical = false
			}
		}
		fmt.Printf("%-6d %-7d %-13d %-11d %-6d %-9v %v\n",
			part.NumParts, its, res.OperatorApplications,
			res.Comm.HaloWords, res.Comm.Messages,
			elapsed.Round(100*time.Microsecond), identical)
		if !identical {
			log.Fatalf("%d parts: solve diverged from the serial reference", part.NumParts)
		}
	}

	inj := serial.Pressure[um.WellIndex()] - 2e7
	prod := serial.Pressure[um.NumCells-1] - 2e7
	fmt.Printf("\nafter %d hours: injector %+.4f bar, producer %+.4f bar\n",
		topts.Steps, inj/1e5, prod/1e5)
	fmt.Println("\nevery CG iteration is one engine application — the \"1000 applications\"")
	fmt.Println("pattern of §3, now driven by the Krylov solver over the partitioned mesh,")
	fmt.Println("with reductions folded in canonical blocked order so part count never changes a bit.")
}
