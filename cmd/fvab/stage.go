package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The stage comparison: fvab -pkg builds the package's test binary in the
// base worktree and in the working tree (go test -c), runs the two
// alternately for n rounds — each run one -test.count of every benchmark
// the pattern selects, at -test.cpu 1 and -benchtime's -test.benchtime when
// it is given, in its own tree's package directory; the base first in odd
// rounds, the change first in even ones — and prints
// per case both medians and quartiles of ns/op, in how many rounds the
// change was faster, and a verdict by the rule judge applies to workloads
// (stageVerdict). The per-stage benchmarks (docs/benchmarks.md) are what
// it is for: alternating the two binaries is what makes a host whose speed
// drifts within minutes comparable with itself.

// stageArgs is the argument list of every run of a test binary: the
// benchmarks pattern selects, no unit test, one count at -cpu 1, and
// -test.benchtime benchtime unless it is "".
func stageArgs(pattern, benchtime string) []string {
	args := []string{"-test.run", "^$", "-test.bench", pattern, "-test.cpu", "1", "-test.count", "1"}
	if benchtime != "" {
		args = append(args, "-test.benchtime", benchtime)
	}
	return args
}

// runStages builds both sides' test binaries of pkg — trees holds the base
// and the change checkout — under dir, then runs each with args (stageArgs)
// and compares them.
func runStages(stdout io.Writer, trees [2]string, dir, pkg string, args []string, n int, base string) error {
	var bins [2]string
	for k, name := range []string{"base", "change"} {
		bins[k] = filepath.Join(dir, name, "pkg.test")
		cmd := exec.Command("go", "test", "-c", "-o", bins[k], "./"+filepath.ToSlash(filepath.Clean(pkg)))
		cmd.Dir = trees[k]
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building the %s test binary of %s: %v\n%s", name, pkg, err, out)
		}
	}
	fmt.Fprintf(stdout, "fvab: %s %q, %d alternating rounds, base %s vs the working tree\n", pkg, args, n, base)
	return compareStages(stdout, n, func(k int) (map[string]float64, error) {
		cmd := exec.Command(bins[k], args...)
		cmd.Dir = filepath.Join(trees[k], pkg)
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s test binary: %v\n%s", []string{"base", "change"}[k], err, out)
		}
		return parseBench(out)
	})
}

// parseBench reads each benchmark line of go test -bench output into its
// case name → ns/op.
func parseBench(out []byte) (map[string]float64, error) {
	cases := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		for i := 2; i+1 < len(f); i++ {
			if f[i+1] == "ns/op" {
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					return nil, fmt.Errorf("benchmark line %q: %v", sc.Text(), err)
				}
				cases[f[0]] = v
			}
		}
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("no benchmark line with ns/op in the output")
	}
	return cases, nil
}

// compareStages runs n alternating rounds — run(k) runs the base (k = 0) or
// the change (k = 1) once and returns its ns/op per case — and prints one
// row per case: both sides' median and quartiles in µs, the change's median
// against the base's, its wins and the verdict. A case one side lacks is
// named, with the other side's median.
func compareStages(w io.Writer, n int, run func(k int) (map[string]float64, error)) error {
	var names []string
	var times [2]map[string][]float64
	for k := range times {
		times[k] = map[string][]float64{}
	}
	wins, losses := map[string]int{}, map[string]int{}
	for round := 1; round <= n; round++ {
		order := []int{0, 1}
		if round%2 == 0 {
			order = []int{1, 0}
		}
		var got [2]map[string]float64
		for _, k := range order {
			cases, err := run(k)
			if err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			got[k] = cases
			for name, v := range cases {
				if !slices.Contains(names, name) {
					names = append(names, name)
				}
				times[k][name] = append(times[k][name], v)
			}
		}
		for name, c := range got[1] {
			if b, ok := got[0][name]; ok && c < b {
				wins[name]++
			} else if ok && c > b {
				losses[name]++
			}
		}
		fmt.Fprintf(w, "round %2d (%s first): %d cases\n", round, []string{"base", "change"}[order[0]], len(got[order[0]]))
	}
	slices.Sort(names)
	fmt.Fprintf(w, "%-44s %-28s %-28s %8s %6s  %s\n", "case (µs/op)", "base median [q1, q3]", "change median [q1, q3]", "Δ median", "wins", "verdict")
	q := func(v []float64) string {
		s := quartiles(v)
		return fmt.Sprintf("%.4g [%.4g, %.4g]", s[1]/1e3, s[0]/1e3, s[2]/1e3)
	}
	for _, name := range names {
		b, c := times[0][name], times[1][name]
		switch {
		case len(b) == 0:
			fmt.Fprintf(w, "%-44s %-28s %-28s  only in the change\n", name, "—", q(c))
		case len(c) == 0:
			fmt.Fprintf(w, "%-44s %-28s %-28s  only in the base\n", name, q(b), "—")
		default:
			qb, qc := quartiles(b), quartiles(c)
			pairs := min(len(b), len(c))
			fmt.Fprintf(w, "%-44s %-28s %-28s %+7.1f%% %3d/%-2d  %s\n", name, q(b), q(c), 100*(qc[1]-qb[1])/qb[1],
				wins[name], pairs, stageVerdict(wins[name], losses[name], pairs, qb, qc))
		}
	}
	return nil
}

// stageVerdict judges one case over its paired rounds by judge's rule
// (clearWin): "better" when the change is faster in at least 9 in 10 rounds
// and its median is below the base's by more than the base's interquartile
// range, "worse" when the base wins that way, and "within noise" otherwise.
func stageVerdict(wins, losses, pairs int, base, change [3]float64) string {
	switch {
	case change[1] < base[1] && clearWin(wins, pairs, base, change):
		return "better"
	case change[1] > base[1] && clearWin(losses, pairs, base, change):
		return "worse"
	}
	return "within noise"
}
