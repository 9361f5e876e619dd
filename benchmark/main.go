// Command benchmark is the repository's one repeatable benchmark: it runs one
// workload per process through the massivefv facade, checks the outputs
// against independent oracles, and prints every metric by name and unit. See
// README.md for the protocol and the metric tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/massivefv"
)

// workloads maps each workload name to its runner. A nil tracer selects the
// untraced run the end-to-end metrics come from.
var workloads = []struct {
	name string
	run  func(seed uint64, sz sizes, tr *tracer) (*report, error)
}{
	{"flux-structured", runFlux},
	{"usolve-jacobi-p4", runUsolve("usolve-jacobi-p4", 2, massivefv.PrecondJacobi)},
	{"usolve-amg-p1", runUsolve("usolve-amg-p1", 0, massivefv.PrecondAMG)},
	{"serve-mixed", runServe},
}

func runWorkload(name string, seed uint64, sz sizes, tr *tracer) (*report, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run(seed, sz, tr)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: flux-structured, usolve-jacobi-p4, usolve-amg-p1 or serve-mixed")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", nominalRunSeconds, "run length the op counts are scaled to")
		trace    = flag.Int("trace", 0, "1 selects the traced run that reports the per-layer metrics")
		traceOut = flag.String("trace-out", "", "file the traced run writes its spans to (default benchmark/out/trace-<workload>.json)")
		check    = flag.Bool("selfcheck", false, "run two sets of -repeat runs of every workload and check that same code agrees with itself")
		repeat   = flag.Int("repeat", 3, "runs per set of the self-check")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *check {
		ok, err := selfCheck(os.Stdout, *seed, sizesFor(*seconds, false), *repeat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !ok {
			fmt.Println("self-check FAILED")
			os.Exit(1)
		}
		fmt.Println("self-check passed")
		return
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	rep, err := runWorkload(*workload, *seed, sizesFor(*seconds, tr != nil), tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if tr != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join("benchmark", "out", "trace-"+*workload+".json")
		}
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
		printSelfTimes(tr.spans)
	}
	rep.print(os.Stdout)
	for _, name := range rep.missing() {
		fmt.Printf("  MISSING: %s\n", name)
	}
	res := rep.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printSelfTimes lists where the traced run's time went: self seconds per
// span name, largest first. Self times of all spans sum to the root spans'
// durations.
func printSelfTimes(spans []span) {
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	total := 0.0
	for name, sec := range self {
		names = append(names, name)
		total += sec
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("self time by span:")
	for _, name := range names {
		fmt.Printf("  %-20s %10.4f s %5.1f %%\n", name, self[name], 100*self[name]/total)
	}
}
