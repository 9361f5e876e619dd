// Command fvsim runs the transient implicit simulator: backward-Euler
// pressure stepping with wells, one preconditioned Krylov solve per step.
// On the structured mesh every operator application can flow through the
// dataflow flux kernel (the §8 execution model); on an unstructured radial
// mesh it runs umesh.RunTransientPartitioned — a TransientSolver on a
// PartOperator — the §9 topology distributed over RCB parts.
//
// Usage:
//
//	fvsim -dims 16x12x6 -steps 8 -dt 6h -rate 3.5 -dataflow
//	fvsim -mesh unstructured -parts 4 -workers 2 -steps 6
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"time"

	"repro/internal/cliutil"
	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/sim"
	"repro/internal/umesh"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/-help: usage already printed, exit clean
		}
		fmt.Fprintln(os.Stderr, "fvsim:", err)
		os.Exit(1)
	}
}

// run executes the tool with explicit argv and streams — the testable entry
// the table-driven CLI tests drive.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fvsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		meshKind = fs.String("mesh", "structured", "mesh family: structured|unstructured")
		dimsStr  = fs.String("dims", "14x12x5", "structured mesh size NxXNyXNz")
		rings    = fs.Int("rings", 24, "unstructured radial mesh rings (sectors double every 8 rings)")
		sectors  = fs.Int("sectors", 24, "unstructured radial mesh base sectors")
		parts    = fs.Int("parts", 4, "unstructured RCB part count (power of two)")
		steps    = fs.Int("steps", 6, "implicit time steps")
		dtStr    = fs.String("dt", "6h", "time step length (Go duration)")
		rate     = fs.Float64("rate", 4.0, "injection mass rate [kg/s] (balanced producer added)")
		dataflow = fs.Bool("dataflow", false, "apply the Krylov operator through the dataflow kernel (structured mesh only)")
		workers  = fs.Int("workers", 1, "engine workers: >1 selects the sharded/partitioned engines, 0 all CPUs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", *workers)
	}
	if *workers == 0 {
		*workers = runtime.NumCPU()
	}
	dt, err := time.ParseDuration(*dtStr)
	if err != nil {
		return fmt.Errorf("dt: %w", err)
	}

	switch *meshKind {
	case "structured":
		return runStructured(stdout, *dimsStr, *steps, dt, *rate, *dataflow, *workers)
	case "unstructured":
		if *dataflow {
			return fmt.Errorf("-dataflow applies to the structured mesh only (the unstructured path always runs the partitioned engine)")
		}
		return runUnstructured(stdout, *rings, *sectors, *parts, *steps, dt, *rate, *workers)
	default:
		return fmt.Errorf("unknown mesh %q (want structured or unstructured)", *meshKind)
	}
}

// runStructured runs the structured mesh through sim, the structured front end
// of the one transient solver.
func runStructured(stdout io.Writer, dimsStr string, steps int, dt time.Duration, rate float64, dataflow bool, workers int) error {
	d, err := cliutil.ParseDims(dimsStr)
	if err != nil {
		return err
	}
	m, err := mesh.BuildDefault(d)
	if err != nil {
		return err
	}
	fl := physics.DefaultFluid()
	opts := sim.Options{
		Dt:    dt.Seconds(),
		Steps: steps,
		Wells: []sim.Well{
			{X: d.Nx / 4, Y: d.Ny / 4, Rate: rate},
			{X: 3 * d.Nx / 4, Y: 3 * d.Ny / 4, Rate: -rate},
		},
		Faces:               refflux.FacesAll,
		UseDataflowOperator: dataflow,
		Workers:             workers,
	}
	start := time.Now()
	res, err := sim.RunTransient(m, fl, opts)
	if err != nil {
		return err
	}
	operator := "float64 host assembly"
	if dataflow {
		operator = "dataflow flux kernel (float32, §8)"
		if workers > 1 {
			operator = fmt.Sprintf("dataflow flux kernel (float32, §8, %d workers)", workers)
		}
	}
	fmt.Fprintf(stdout, "transient run: %v cells, %d steps of %v, operator: %s\n",
		d.Cells(), steps, dt, operator)
	fmt.Fprintln(stdout, "step  CG its  rel.residual  max Δp [bar]  mass err")
	for _, st := range res.Steps {
		fmt.Fprintf(stdout, "%4d  %6d  %12.2e  %12.4f  %8.1e\n",
			st.Step, st.Iterations, st.Residual, st.MaxDeltaP/1e5, st.MassError)
	}
	if res.OperatorApplications > 0 {
		fmt.Fprintf(stdout, "dataflow kernel applications: %d\n", res.OperatorApplications)
	}
	fmt.Fprintf(stdout, "host time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runUnstructured is the partitioned implicit path: an RCB-decomposed radial
// mesh, every Krylov operator application executed on the persistent
// partitioned engine.
func runUnstructured(stdout io.Writer, rings, sectors, parts, steps int, dt time.Duration, rate float64, workers int) error {
	if parts < 1 || bits.OnesCount(uint(parts)) != 1 {
		return fmt.Errorf("-parts must be a positive power of two (RCB bisection), got %d", parts)
	}
	ropts := umesh.DefaultRadialOptions()
	ropts.Rings = rings
	ropts.BaseSectors = sectors
	// Refine on a fixed 8-ring cadence: frequent refinement grows the cell
	// count exponentially with -rings and degrades the system's conditioning
	// (tiny outer cells, widely spread transmissibilities).
	ropts.RefineEvery = 8
	u, err := umesh.NewRadialMesh(ropts)
	if err != nil {
		return err
	}
	part, err := umesh.RCB(u, bits.TrailingZeros(uint(parts)))
	if err != nil {
		return err
	}
	fl := physics.DefaultFluid()
	opts := umesh.TransientOptions{
		Dt:    dt.Seconds(),
		Steps: steps,
		Wells: []umesh.Well{
			{Cell: u.WellIndex(), Rate: rate},
			{Cell: u.NumCells - 1, Rate: -rate},
		},
		Workers: workers,
	}
	start := time.Now()
	res, err := umesh.RunTransientPartitioned(u, part, fl, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "partitioned transient run: %d cells (radial, max degree %d), %d parts, %d steps of %v, operator: partitioned engine (float64 halo exchange)\n",
		u.NumCells, u.MaxDegree(), part.NumParts, steps, dt)
	fmt.Fprintln(stdout, "step  CG its  rel.residual  max Δp [bar]  mass err")
	for _, st := range res.Steps {
		fmt.Fprintf(stdout, "%4d  %6d  %12.2e  %12.4f  %8.1e\n",
			st.Step, st.Iterations, st.Residual, st.MaxDeltaP/1e5, st.MassError)
	}
	fmt.Fprintf(stdout, "partitioned operator applications: %d, halo words %d, messages %d\n",
		res.OperatorApplications, res.Comm.HaloWords, res.Comm.Messages)
	fmt.Fprintf(stdout, "host time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
