// Command fvab runs the claim protocol as one command. It builds the
// repository benchmark (benchmark/) from a base revision and from the working
// tree and checks that both builds put the yardstick's timed loop at the same
// offset mod 64. Then it runs N alternating pairs of one workload, or of
// every workload in BENCHMARK.json's order with -workload all, and judges
// every end-to-end metric against its bound in BENCHMARK.json, printing one
// verdict table per workload.
//
// Usage:
//
//	fvab -base <rev> -workload <name> [-n 10]
//	fvab -base <rev> -workload all [-n 10]
//	make ab BASE=<rev> W=<workload> N=10
//	make ab-all BASE=<rev> N=10
//
// The base is checked out as a detached git worktree under .bench_build/ab
// (the revision must already be in .git) and removed afterwards. Both
// binaries are built once, as benchmark/run.sh builds one, with its
// environment. Pair i runs seed i with --trace 0 and BENCHMARK.json's
// run_seconds; the base runs first in odd pairs and the working tree first in
// even ones. After a workload's pairs, each side runs it once more on seed 1
// with --trace 1, and every metric whose unit is count — iterations,
// applications, halo words, messages, dispatches, barriers, … — is compared:
// a change that claims only speed leaves each of them identical (≡).
//
// When the two builds put the yardstick at different offsets, their
// normalised metrics are not comparable. fvab prints both offsets and runs
// the pairs anyway, judging setup_s and op_s_p50 by their raw counterparts
// (host.raw_setup_s, host.raw_op_s_p50) under the same bounds, the
// allocation and residency metrics as usual, and op_s_p90 and
// cell_updates_per_s, which have no raw counterpart, not at all. The raw
// metrics are read from the table a run prints above its result line.
//
// Exit status:
//   - 0 when no metric of any workload regressed beyond its bound and the
//     change failed no larger share of operations;
//   - 1 when one did, when a count moved, when a run lacks a judged metric,
//     or on an error;
//   - 2 when none of that happened but the two builds' yardstick offsets
//     differ, so only the raw metrics were judged.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// errLayout is the exit-2 outcome: the builds' yardstick offsets differ.
var errLayout = errors.New("the two builds' yardstick offsets differ: only raw metrics were judged")

// rawMetric maps each end-to-end metric normalised by the yardstick to the
// raw metric judged in its place when the builds' offsets differ; "" marks
// one with no raw counterpart.
var rawMetric = map[string]string{
	"setup_s":            "host.raw_setup_s",
	"op_s_p50":           "host.raw_op_s_p50",
	"op_s_p90":           "",
	"cell_updates_per_s": "",
}

// errRegressed and errMoved are the exit-1 verdicts of a completed
// comparison.
var (
	errRegressed = errors.New("the change regressed")
	errMoved     = errors.New("counts moved")
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errLayout):
		fmt.Fprintln(os.Stderr, "fvab: warning:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "fvab:", err)
		os.Exit(1)
	}
}

// run executes the tool with explicit argv and streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fvab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		base     = fs.String("base", "", "git revision to compare the working tree against (required)")
		workload = fs.String("workload", "", "benchmark workload, as BENCHMARK.json names it, or all (required)")
		n        = fs.Int("n", 10, "alternating pairs to run, seeds 1…n")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *workload == "" || *n < 1 || fs.NArg() > 0 {
		fs.Usage()
		return errors.New("need -base and -workload, and -n ≥ 1")
	}
	top, err := output(".", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	root := strings.TrimSpace(top)
	workloads, bounds, seconds, err := loadSpec(filepath.Join(root, "BENCHMARK.json"), *workload)
	if err != nil {
		return err
	}

	ab := filepath.Join(root, ".bench_build", "ab")
	tree := filepath.Join(ab, "base-tree")
	// A worktree an interrupted run left behind goes first; there is none
	// to remove on a clean start, so that error means nothing.
	_, _ = output(root, "git", "worktree", "remove", "--force", tree)
	if _, err := output(root, "git", "worktree", "add", "--detach", tree, *base); err != nil {
		return err
	}
	defer func() {
		if _, err := output(root, "git", "worktree", "remove", "--force", tree); err != nil {
			fmt.Fprintln(stderr, "fvab: leaving the base worktree behind:", err)
		}
	}()
	sides := [2]side{
		{name: "base", tree: tree, bin: filepath.Join(ab, "base", "fvbench")},
		{name: "change", tree: root, bin: filepath.Join(ab, "change", "fvbench")},
	}
	for i := range sides {
		s := &sides[i]
		if err := build(root, s); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "layout: %s build, main.(*yardstick).run at %d mod 64\n", s.name, s.offset)
	}
	mismatch := sides[0].offset != sides[1].offset
	if mismatch {
		var skipped []string
		bounds, skipped = rawBounds(bounds)
		fmt.Fprintf(stdout, "layout: offsets differ, judging raw metrics; %s not comparable\n", strings.Join(skipped, ", "))
	}

	fmt.Fprintf(stdout, "fvab: %s, %d alternating pairs at --seconds %d, base %s vs the working tree\n",
		strings.Join(workloads, ", "), *n, seconds, *base)
	err = compare(stdout, workloads, bounds, *n, func(k int, workload string, seed int, trace bool) (result, error) {
		return sides[k].run(workload, seed, seconds, trace)
	})
	if err == nil && mismatch {
		return errLayout
	}
	return err
}

// rawBounds returns the bounds to judge two builds by when their yardstick
// offsets differ: each normalised metric of rawMetric replaced by its raw
// counterpart under the same bound, or left out and named in skipped.
func rawBounds(bounds []bound) (judged []bound, skipped []string) {
	for _, b := range bounds {
		raw, normalised := rawMetric[b.Name]
		switch {
		case !normalised:
		case raw == "":
			skipped = append(skipped, b.Name)
			continue
		default:
			b.Name = raw
		}
		judged = append(judged, b)
	}
	return judged, skipped
}

// compare runs n alternating pairs of each workload in turn — run(k, …) runs
// the base (k = 0) or the change (k = 1) — printing every pair and one
// verdict table per workload, then one traced run per side and the count
// diff. It returns errRegressed, naming the workloads, when any of them
// regressed, and errMoved, naming each count, when a count moved.
func compare(w io.Writer, workloads []string, bounds []bound, n int, run func(k int, workload string, seed int, trace bool) (result, error)) error {
	var regressed, moved []string
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s:\n", wl)
		var pairs []pair
		for seed := 1; seed <= n; seed++ {
			order, first := []int{0, 1}, "base"
			if seed%2 == 0 {
				order, first = []int{1, 0}, "change"
			}
			var p pair
			for _, k := range order {
				r, err := run(k, wl, seed, false)
				if err != nil {
					return err
				}
				if names := absent(bounds, r); len(names) > 0 {
					return fmt.Errorf("%s: the %s run of seed %d reports no value for %s", wl, []string{"base", "change"}[k], seed, strings.Join(names, ", "))
				}
				p[k] = r
			}
			fmt.Fprintf(w, "pair %2d (seed %d, %s first):%s\n", seed, seed, first, p.line(bounds))
			pairs = append(pairs, p)
		}
		if report(w, bounds, pairs) != nil {
			regressed = append(regressed, wl)
		}
		var traced pair
		for k := range traced {
			r, err := run(k, wl, 1, true)
			if err != nil {
				return err
			}
			traced[k] = r
		}
		fmt.Fprintln(w, "counts of one traced run per side, seed 1 (base, change):")
		for _, name := range countDiff(w, traced) {
			moved = append(moved, wl+" "+name)
		}
	}
	var errs []error
	if len(regressed) > 0 {
		errs = append(errs, fmt.Errorf("%w: %s", errRegressed, strings.Join(regressed, ", ")))
	}
	if len(moved) > 0 {
		errs = append(errs, fmt.Errorf("%w: %s", errMoved, strings.Join(moved, ", ")))
	}
	return errors.Join(errs...)
}

// absent returns the judged metrics a run lacks or reports as 0, which
// would be judged 0 against 0.
func absent(bounds []bound, r result) []string {
	var names []string
	for _, b := range bounds {
		if r.Metrics[b.Name].Value == 0 {
			names = append(names, b.Name)
		}
	}
	return names
}

// countDiff prints every metric of a traced pair whose unit is count, base
// and change, marked ≡ when they are equal, and returns the names of those
// that moved — a count one side does not report moved too.
func countDiff(w io.Writer, p pair) []string {
	var names, moved []string
	for k := range p {
		for name, m := range p[k].Metrics {
			if m.Unit == "count" && !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	for _, name := range names {
		b, bok := p[0].Metrics[name]
		c, cok := p[1].Metrics[name]
		mark := "≡"
		if !bok || !cok || b != c {
			mark = "MOVED"
			moved = append(moved, name)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %14.6g  %s\n", name, b.Value, c.Value, mark)
	}
	return moved
}

// side is one build under comparison.
type side struct {
	name   string
	tree   string // the checkout it is built from and runs in
	bin    string
	offset uint64 // main.(*yardstick).run's address mod 64
}

// build builds the side's benchmark binary with benchmark/run.sh's
// environment (its Go files under the working tree's .bench_build, so the
// build cache outlives the base worktree) and reads its yardstick offset.
func build(root string, s *side) error {
	cache := filepath.Join(root, ".bench_build")
	cmd := exec.Command("go", "build", "-o", s.bin, ".")
	cmd.Dir = filepath.Join(s.tree, "benchmark")
	cmd.Env = append(os.Environ(), "HOME="+filepath.Join(cache, "home"), "GOCACHE="+filepath.Join(cache, "gocache"),
		"GOPATH="+filepath.Join(cache, "gopath"), "GOFLAGS=", "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the %s benchmark: %v\n%s", s.name, err, out)
	}
	nm, err := output(root, "go", "tool", "nm", s.bin)
	if err != nil {
		return err
	}
	addr, ok := symbolAddr(nm, "main.(*yardstick).run")
	if !ok {
		return fmt.Errorf("no main.(*yardstick).run in the %s benchmark binary", s.name)
	}
	s.offset = addr % 64
	return nil
}

// symbolAddr finds a text symbol's address in `go tool nm` output.
func symbolAddr(nm, symbol string) (uint64, bool) {
	for _, line := range strings.Split(nm, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[2] == symbol {
			var addr uint64
			if _, err := fmt.Sscanf(f[0], "%x", &addr); err == nil {
				return addr, true
			}
		}
	}
	return 0, false
}

// run runs one benchmark and parses its result line; a traced run writes its
// spans beside the binary. A run whose operations failed exits 1 but still
// prints the line, which counts them.
func (s *side) run(workload string, seed, seconds int, trace bool) (result, error) {
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0"}
	if trace {
		args[len(args)-1] = "1"
		args = append(args, "--trace-out", filepath.Join(filepath.Dir(s.bin), "trace-"+workload+".json"))
	}
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.tree
	out, err := cmd.Output()
	r, perr := parseResult(out)
	if perr != nil {
		return result{}, fmt.Errorf("%s run, seed %d: %v (%v)", s.name, seed, perr, err)
	}
	return r, nil
}

// output runs a command in dir and returns its standard output.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return string(out), nil
}

// bound is one end-to-end metric of BENCHMARK.json: a change may be worse
// than the base by at most Bound, a fraction of the base's median.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json's end-to-end metrics and run length, and
// the workloads to compare: the named one, which it must declare, or for
// "all" every one it declares, in its order.
func loadSpec(path, workload string) ([]string, []bound, int, error) {
	var s struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []bound `json:"end_to_end"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	var declared []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	workloads := declared
	if workload != "all" {
		if !slices.Contains(declared, workload) {
			return nil, nil, 0, fmt.Errorf("%s declares no workload %q", path, workload)
		}
		workloads = []string{workload}
	}
	if len(workloads) == 0 || len(s.EndToEnd) == 0 || s.RunSeconds < 1 {
		return nil, nil, 0, fmt.Errorf("%s lists no workload, no end-to-end metric or no run_seconds", path)
	}
	for _, m := range s.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 {
			return nil, nil, 0, fmt.Errorf("%s: metric %q needs better lower|higher and a positive bound", path, m.Name)
		}
	}
	return workloads, s.EndToEnd, s.RunSeconds, nil
}

// result is a benchmark run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one value of a run, from its result line or its table.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parseResult reads the JSON result from a run's standard output, its last
// non-empty line, plus each metric of the table above it ("  name value
// unit") that the line lacks: an untraced run's line has no raw host metric.
func parseResult(out []byte) (result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	if !strings.HasPrefix(last, "{") {
		return r, fmt.Errorf("no result line in the output (last line %q)", last)
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 3 || !strings.HasPrefix(l, "  ") || r.Metrics == nil {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil && r.Metrics[f[0]].Unit == "" {
			r.Metrics[f[0]] = metric{Value: v, Unit: f[2]}
		}
	}
	return r, nil
}

// pair is one seed's base ([0]) and change ([1]) runs.
type pair [2]result

// line renders the pair's metrics, base → change.
func (p pair) line(bounds []bound) string {
	var b strings.Builder
	for _, m := range bounds {
		fmt.Fprintf(&b, " %s %.4g→%.4g", m.Name, p[0].Metrics[m.Name].Value, p[1].Metrics[m.Name].Value)
	}
	fmt.Fprintf(&b, " failed %d/%d→%d/%d", p[0].Failed, p[0].Attempted, p[1].Failed, p[1].Attempted)
	return b.String()
}

// row is the comparison of one metric over all pairs.
type row struct {
	bound
	base, change [3]float64 // first quartile, median, third quartile
	wins         int        // pairs in which the change is better
	worse        float64    // the change's median, worse than the base's by this fraction (< 0: better)
	verdict      string
	regressed    bool
}

// judge compares every bounded metric over the pairs. A metric regresses
// when the change's median is worse than the base's by more than its bound;
// it improves when the change wins at least 9 in 10 pairs and the medians
// differ by more than the base's interquartile range.
func judge(bounds []bound, pairs []pair) []row {
	rows := make([]row, 0, len(bounds))
	for _, m := range bounds {
		var bv, cv []float64
		r := row{bound: m}
		for _, p := range pairs {
			b, c := p[0].Metrics[m.Name].Value, p[1].Metrics[m.Name].Value
			bv, cv = append(bv, b), append(cv, c)
			if m.Better == "lower" && c < b || m.Better == "higher" && c > b {
				r.wins++
			}
		}
		r.base, r.change = quartiles(bv), quartiles(cv)
		r.worse = (r.change[1] - r.base[1]) / r.base[1]
		if m.Better == "higher" {
			r.worse = -r.worse
		}
		switch {
		case r.worse > m.Bound:
			r.regressed = true
			r.verdict = fmt.Sprintf("REGRESSION: worse by more than the bound %g", m.Bound)
		case r.worse < 0 && 10*r.wins >= 9*len(pairs) && math.Abs(r.change[1]-r.base[1]) > r.base[2]-r.base[0]:
			r.verdict = "better: ≥ 9 in 10 pairs, beyond the base IQR"
		default:
			r.verdict = "within the bound"
		}
		rows = append(rows, r)
	}
	return rows
}

// failedShare sums one side's failed and attempted operations over the pairs.
func failedShare(pairs []pair, side int) (failed, attempted int) {
	for _, p := range pairs {
		failed += p[side].Failed
		attempted += p[side].Attempted
	}
	return failed, attempted
}

// quartiles returns the first quartile, the median and the third quartile
// of v, interpolated linearly between order statistics.
func quartiles(v []float64) [3]float64 {
	s := slices.Sorted(slices.Values(v))
	at := func(q float64) float64 {
		x := q * float64(len(s)-1)
		lo := int(x)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// report prints the comparison table and the verdict, and returns
// errRegressed when a metric regressed beyond its bound or the change failed
// a larger share of operations.
func report(w io.Writer, bounds []bound, pairs []pair) error {
	fmt.Fprintf(w, "%-20s %-6s %-5s %-34s %-34s %8s %6s  %s\n",
		"metric", "better", "bound", "base median [q1, q3]", "change median [q1, q3]", "Δ median", "wins", "verdict")
	regressed := false
	for _, r := range judge(bounds, pairs) {
		q := func(v [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", v[1], v[0], v[2]) }
		delta := (r.change[1] - r.base[1]) / r.base[1]
		fmt.Fprintf(w, "%-20s %-6s %-5g %-34s %-34s %+7.1f%% %3d/%-2d  %s\n",
			r.Name, r.Better, r.Bound, q(r.base), q(r.change), 100*delta, r.wins, len(pairs), r.verdict)
		regressed = regressed || r.regressed
	}
	bf, ba := failedShare(pairs, 0)
	cf, ca := failedShare(pairs, 1)
	fmt.Fprintf(w, "failed operations: base %d of %d, change %d of %d\n", bf, ba, cf, ca)
	if ca == 0 || cf*max(ba, 1) > bf*ca {
		fmt.Fprintln(w, "REGRESSION: the change failed a larger share of its operations")
		regressed = true
	}
	if regressed {
		return errRegressed
	}
	fmt.Fprintln(w, "verdict: no metric regressed beyond its bound")
	return nil
}
