// Command wsesim inspects the wafer-scale fabric simulator: it runs the
// Fig. 6 eastward switch-command broadcast on a PE row, then a small flux
// computation, and dumps the router traffic and per-cell counters.
//
// Usage:
//
//	wsesim -row 8
//	wsesim -dims 10x8x6 -apps 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/physics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/-help: usage already printed, exit clean
		}
		fmt.Fprintln(os.Stderr, "wsesim:", err)
		os.Exit(1)
	}
}

// run executes the tool with explicit argv and streams — the testable entry
// the table-driven CLI tests drive.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("wsesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		row  = fs.Int("row", 8, "PE-row width for the Fig. 6 broadcast demo")
		dims = fs.String("dims", "10x8x6", "mesh for the flux demo")
		apps = fs.Int("apps", 2, "applications of Algorithm 1")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *apps < 1 {
		return fmt.Errorf("-apps must be positive, got %d", *apps)
	}

	if err := broadcastDemo(stdout, *row); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	return fluxDemo(stdout, *dims, *apps)
}

func broadcastDemo(stdout io.Writer, width int) error {
	if width < 2 {
		return fmt.Errorf("broadcast demo needs a row of at least 2 PEs")
	}
	fmt.Fprintf(stdout, "-- Fig. 6 eastward broadcast on a 1x%d PE row --\n", width)
	f, err := fabric.New(fabric.Config{Width: width, Height: 1})
	if err != nil {
		return err
	}
	values := make([]float32, width)
	for i := range values {
		values[i] = float32(100 + i)
	}
	got, err := fabric.EastwardBroadcast(f, values)
	if err != nil {
		return err
	}
	for x := 1; x < width; x++ {
		fmt.Fprintf(stdout, "PE %2d received %.0f from its western neighbor\n", x, got[x])
	}
	tot := f.Totals()
	fmt.Fprintf(stdout, "router commands applied: %d, wavelets delivered: %d, left unread: %d\n",
		tot.Commands, tot.DeliveredToPE, tot.DroppedAtStop)
	return nil
}

func fluxDemo(stdout io.Writer, dimsStr string, apps int) error {
	d, err := cliutil.ParseDims(dimsStr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "-- flux computation on %v, %d applications --\n", d, apps)
	m, err := mesh.BuildDefault(d)
	if err != nil {
		return err
	}
	res, err := core.RunFabric(m, physics.DefaultFluid(), core.DefaultOptions(apps))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "engine: %s, host time %v\n", res.Engine, res.Elapsed)
	if res.Interior != nil {
		fmt.Fprintf(stdout, "per interior cell: %s\n", res.Interior)
	}
	if res.FabricTotals != nil {
		fmt.Fprintf(stdout, "fabric: %d wavelets sent from ramps, %d delivered, %d router-forwarded, %d left unread\n",
			res.FabricTotals.SentFromRamp, res.FabricTotals.DeliveredToPE,
			res.FabricTotals.Forwarded, res.FabricTotals.DroppedAtStop)
	}
	var sum, mx float64
	for _, r := range res.Residual {
		sum += float64(r)
		if a := abs64(float64(r)); a > mx {
			mx = a
		}
	}
	fmt.Fprintf(stdout, "residual: Σ = %.3e (mass conservation), max |r| = %.3e\n", sum, mx)
	return nil
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
