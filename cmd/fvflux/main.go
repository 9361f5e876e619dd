// Command fvflux runs the paper's experiments: functional simulation for
// correctness and counters, calibrated projection for hardware scale, and a
// side-by-side report against the published numbers.
//
// Usage:
//
//	fvflux -experiment all
//	fvflux -experiment table1 -dims 16x12x10 -apps 3
//	fvflux -experiment ablations -engine flat
//	fvflux -experiment table2 -engine parallel -workers 8
//
// Host wall-clock is not measured here: end-to-end claims go through
// benchmark/ (BENCHMARK.json), stage timings through `go test -bench` — see
// docs/benchmarks.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/cliutil"
)

// experiments is the single source of truth for -experiment values: it
// drives the flag help, the unknown-value error, and must match the run()
// registrations below (plus the "all" sentinel).
var experiments = []string{"table1", "table2", "table3", "table4", "fig8", "ablations", "all"}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/-help: usage already printed, exit clean
		}
		fmt.Fprintln(os.Stderr, "fvflux:", err)
		os.Exit(1)
	}
}

// run executes the tool with explicit argv and streams — the testable entry
// the table-driven CLI tests drive.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fvflux", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", strings.Join(experiments, "|"))
		dims       = fs.String("dims", "12x10x8", "functional mesh NxXNyXNz (Nx,Ny ≥ 3)")
		apps       = fs.Int("apps", 2, "functional applications of Algorithm 1")
		engine     = fs.String("engine", "fabric", "functional engine: fabric|flat|parallel")
		workers    = fs.Int("workers", 0, "worker count for -engine parallel (0 = all CPUs)")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this path")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile taken after the selected experiments to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Fail before the experiments run, not after: creating the file up
		// front surfaces an unwritable path immediately.
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "fvflux: memprofile:", err)
			}
			f.Close()
		}()
	}

	if !slices.Contains(experiments, *experiment) {
		return fmt.Errorf("unknown experiment %q (want one of %s)", *experiment, strings.Join(experiments, ", "))
	}

	d, err := cliutil.ParseDims(*dims)
	if err != nil {
		return err
	}
	cfg := bench.Config{FuncDims: d, FuncApps: *apps}
	switch *engine {
	case "fabric":
		cfg.UseFabric = true
	case "flat":
		cfg.UseFabric = false
	case "parallel":
		if *workers < 0 {
			return fmt.Errorf("-workers must be non-negative, got %d", *workers)
		}
		cfg.UseFabric = false
		cfg.Workers = *workers
		if cfg.Workers == 0 {
			cfg.Workers = runtime.NumCPU()
		}
	default:
		return fmt.Errorf("unknown engine %q (want fabric, flat or parallel)", *engine)
	}

	var firstErr error
	runExp := func(name string, fn func(bench.Config) error) {
		if firstErr != nil || (*experiment != "all" && *experiment != name) {
			return
		}
		fmt.Fprintf(stdout, "==== %s ====\n", name)
		if err := fn(cfg); err != nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
			return
		}
		fmt.Fprintln(stdout)
	}

	runExp("table1", func(c bench.Config) error {
		t, err := bench.RunTable1(c)
		if err != nil {
			return err
		}
		return t.Render(stdout)
	})
	runExp("table2", func(c bench.Config) error {
		t, err := bench.RunTable2(c)
		if err != nil {
			return err
		}
		return t.Render(stdout)
	})
	runExp("table3", func(c bench.Config) error {
		t, err := bench.RunTable3(c)
		if err != nil {
			return err
		}
		return t.Render(stdout)
	})
	runExp("table4", func(c bench.Config) error {
		t, err := bench.RunTable4(c)
		if err != nil {
			return err
		}
		return t.Render(stdout)
	})
	runExp("fig8", func(c bench.Config) error {
		f, err := bench.RunFig8(c)
		if err != nil {
			return err
		}
		return f.Render(stdout)
	})
	runExp("ablations", func(c bench.Config) error {
		for _, ab := range []func(bench.Config) (*bench.Ablation, error){
			bench.RunAblationDiagonals,
			bench.RunAblationVectorization,
			bench.RunAblationOverlap,
			bench.RunAblationBufferReuse,
		} {
			a, err := ab(c)
			if err != nil {
				return err
			}
			if err := a.Render(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		return nil
	})
	return firstErr
}
