package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// line is a canned benchmark result line with the given op_s_p50 and
// alloc_mb_per_op and failed share.
func line(opS, alloc float64, failed, attempted int) string {
	return fmt.Sprintf(`{"correct":%v,"attempted":%d,"failed":%d,"metrics":{`+
		`"op_s_p50":{"value":%g,"unit":"s"},"alloc_mb_per_op":{"value":%g,"unit":"MiB"}}}`,
		failed == 0, attempted, failed, opS, alloc)
}

var testBounds = []bound{
	{Name: "op_s_p50", Better: "lower", Bound: 0.2},
	{Name: "alloc_mb_per_op", Better: "lower", Bound: 0.05},
}

// pairsOf parses canned base and change lines into pairs.
func pairsOf(t *testing.T, base, change []string) []pair {
	t.Helper()
	var ps []pair
	for i := range base {
		var p pair
		for k, l := range []string{base[i], change[i]} {
			r, err := parseResult([]byte("op 1 … done\n  op_s_p50  0.03 s\n" + l + "\n"))
			if err != nil {
				t.Fatal(err)
			}
			p[k] = r
		}
		ps = append(ps, p)
	}
	return ps
}

func TestParseResultReadsTheLastLine(t *testing.T) {
	r, err := parseResult([]byte("trace: 3 spans\n" + line(0.0332, 26.1, 1, 40) + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed != 1 || r.Attempted != 40 || r.Metrics["op_s_p50"].Value != 0.0332 {
		t.Fatalf("parsed %+v", r)
	}
	for _, out := range []string{"", "benchmark: no such workload\n", "{\"correct\":tru\n"} {
		if _, err := parseResult([]byte(out)); err == nil {
			t.Errorf("parseResult(%q) accepted it", out)
		}
	}
}

func TestQuartilesInterpolate(t *testing.T) {
	got := quartiles([]float64{5, 1, 4, 2, 3})
	if got != [3]float64{2, 3, 4} {
		t.Fatalf("quartiles of 1…5 = %v", got)
	}
	if got := quartiles([]float64{1, 2, 3, 4}); got != [3]float64{1.75, 2.5, 3.25} {
		t.Fatalf("quartiles of 1…4 = %v", got)
	}
	if got := quartiles([]float64{7}); got != [3]float64{7, 7, 7} {
		t.Fatalf("quartiles of one value = %v", got)
	}
}

// TestJudgeVerdicts: a change faster in 10 of 10 pairs by more than the
// base's spread is "better"; one 30 % slower regresses op_s_p50 (bound 20 %);
// one 4 % heavier stays within alloc_mb_per_op's 5 %; and one faster in only
// 8 of 10 pairs makes no claim.
func TestJudgeVerdicts(t *testing.T) {
	var base, faster, slower, mixed []string
	for i := range 10 {
		b := 0.0330 + 0.0002*float64(i%3)
		base = append(base, line(b, 26.10, 0, 100))
		faster = append(faster, line(0.85*b, 26.10*1.04, 0, 100))
		slower = append(slower, line(1.3*b, 26.10, 0, 100))
		m := 0.9 * b
		if i < 2 {
			m = 1.05 * b
		}
		mixed = append(mixed, line(m, 26.10, 0, 100))
	}
	for _, tc := range []struct {
		name         string
		change       []string
		opVerdict    string
		wins         int
		anyRegressed bool
	}{
		{"faster", faster, "better", 10, false},
		{"slower", slower, "REGRESSION", 0, true},
		{"eight of ten", mixed, "within the bound", 8, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := judge(testBounds, pairsOf(t, base, tc.change))
			op, alloc := rows[0], rows[1]
			if !strings.HasPrefix(op.verdict, tc.opVerdict) || op.wins != tc.wins {
				t.Errorf("op_s_p50: verdict %q, wins %d; want %q…, %d", op.verdict, op.wins, tc.opVerdict, tc.wins)
			}
			if alloc.regressed {
				t.Errorf("alloc_mb_per_op regressed: %+v", alloc)
			}
			var out bytes.Buffer
			err := report(&out, testBounds, pairsOf(t, base, tc.change))
			if got := errors.Is(err, errRegressed); got != tc.anyRegressed {
				t.Errorf("report = %v, want regressed %v\n%s", err, tc.anyRegressed, out.String())
			}
		})
	}
}

// TestHigherIsBetterMetric: for a "higher" metric the sign flips — a 30 %
// drop regresses, a rise wins.
func TestHigherIsBetterMetric(t *testing.T) {
	b := []bound{{Name: "op_s_p50", Better: "higher", Bound: 0.2}}
	base := []string{line(100, 1, 0, 10), line(101, 1, 0, 10)}
	rows := judge(b, pairsOf(t, base, []string{line(70, 1, 0, 10), line(71, 1, 0, 10)}))
	if !rows[0].regressed || rows[0].wins != 0 {
		t.Fatalf("a 30 %% drop of a higher-is-better metric: %+v", rows[0])
	}
	rows = judge(b, pairsOf(t, base, []string{line(120, 1, 0, 10), line(121, 1, 0, 10)}))
	if rows[0].regressed || rows[0].wins != 2 || !strings.HasPrefix(rows[0].verdict, "better") {
		t.Fatalf("a 20 %% rise of a higher-is-better metric: %+v", rows[0])
	}
}

// TestReportFailsOnALargerFailedShare: identical metrics, but the change
// failed 1 of 100 operations where the base failed none.
func TestReportFailsOnALargerFailedShare(t *testing.T) {
	base := []string{line(0.033, 26.1, 0, 100), line(0.033, 26.1, 0, 100)}
	change := []string{line(0.033, 26.1, 1, 100), line(0.033, 26.1, 0, 100)}
	var out bytes.Buffer
	if err := report(&out, testBounds, pairsOf(t, base, change)); !errors.Is(err, errRegressed) {
		t.Fatalf("report = %v, want a regression\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "base 0 of 200, change 1 of 200") {
		t.Errorf("failed-operation line missing:\n%s", out.String())
	}
	out.Reset()
	if err := report(&out, testBounds, pairsOf(t, change, base)); err != nil {
		t.Fatalf("a smaller failed share regressed: %v\n%s", err, out.String())
	}
}

// TestCompareRunsEveryWorkload: compare runs each workload's pairs in turn,
// alternating which side goes first, then one traced run per side, prints
// one verdict table per workload and names exactly the workload that
// regressed — after running the rest.
func TestCompareRunsEveryWorkload(t *testing.T) {
	var calls []string
	run := func(k int, workload string, seed int, trace bool) (result, error) {
		call := fmt.Sprintf("%s/%d/%d", workload, seed, k)
		if trace {
			call += "/trace"
		}
		calls = append(calls, call)
		opS := 0.033
		if workload == "slow" && k == 1 {
			opS *= 1.3
		}
		return parseResult([]byte(line(opS, 26.1, 0, 100)))
	}
	var out bytes.Buffer
	err := compare(&out, []string{"steady", "slow", "last"}, testBounds, 2, run)
	if !errors.Is(err, errRegressed) || !strings.HasSuffix(err.Error(), ": slow") {
		t.Fatalf("compare = %v, want a regression naming slow only\n%s", err, out.String())
	}
	var want []string
	for _, w := range []string{"steady", "slow", "last"} {
		want = append(want, w+"/1/0", w+"/1/1", w+"/2/1", w+"/2/0", w+"/1/0/trace", w+"/1/1/trace")
	}
	if !slices.Equal(calls, want) {
		t.Errorf("runs %q, want %q", calls, want)
	}
	if n := strings.Count(out.String(), "verdict"); n != 3+2 {
		t.Errorf("%d verdict lines and headers, want a table header per workload and two clean verdicts:\n%s", n, out.String())
	}
	for _, w := range []string{"steady:\n", "slow:\n", "last:\n"} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("no %q heading:\n%s", w, out.String())
		}
	}
}

// countLine is a canned traced result line: op_s_p50 in seconds and the given
// metrics as counts.
func countLine(opS float64, counts map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct":true,"attempted":1,"failed":0,"metrics":{"op_s_p50":{"value":%g,"unit":"s"}`, opS)
	for name, v := range counts {
		fmt.Fprintf(&b, `,%q:{"value":%g,"unit":"count"}`, name, v)
	}
	return b.String() + "}}"
}

// TestCountDiffNamesEveryMovedCount: on canned traced output, counts that
// repeat are ≡, and a count that changed or that one side does not report is
// named; a metric in seconds is not a count, however far it moves.
func TestCountDiffNamesEveryMovedCount(t *testing.T) {
	base := countLine(0.15, map[string]float64{"solver.iterations_per_op": 910, "umesh.halo_words_per_op": 933888, "exec.barriers_per_op": 0, "serve.solves": 110})
	change := countLine(0.30, map[string]float64{"solver.iterations_per_op": 910, "umesh.halo_words_per_op": 934000, "exec.barriers_per_op": 0, "umesh.gathers_per_op": 2})
	var out bytes.Buffer
	moved := countDiff(&out, pairsOf(t, []string{base}, []string{change})[0])
	if want := []string{"serve.solves", "umesh.gathers_per_op", "umesh.halo_words_per_op"}; !slices.Equal(moved, want) {
		t.Fatalf("moved %q, want %q\n%s", moved, want, out.String())
	}
	if n := strings.Count(out.String(), "≡"); n != 2 {
		t.Errorf("%d counts marked ≡, want 2:\n%s", n, out.String())
	}
	if strings.Contains(out.String(), "op_s_p50") {
		t.Errorf("a metric in seconds was diffed as a count:\n%s", out.String())
	}

	// compare turns a moved count into errMoved naming the workload and the
	// count, beside the verdict tables.
	run := func(k int, workload string, seed int, trace bool) (result, error) {
		if l := []string{base, change}[k]; trace {
			return parseResult([]byte(l))
		}
		return parseResult([]byte(line(0.033, 26.1, 0, 100)))
	}
	out.Reset()
	err := compare(&out, []string{"usolve"}, testBounds, 2, run)
	if !errors.Is(err, errMoved) || errors.Is(err, errRegressed) || !strings.Contains(err.Error(), "usolve umesh.halo_words_per_op") {
		t.Fatalf("compare = %v, want errMoved naming usolve umesh.halo_words_per_op\n%s", err, out.String())
	}
}

// rawLine is the canned output of an untraced run, shaped as the benchmark
// prints it: the metric table with every end-to-end metric of
// BENCHMARK.json and the raw host times, then a result line with the
// end-to-end metrics only. norm scales the normalised times (and divides the
// normalised rate), raw scales the raw times.
func rawLine(norm, raw float64) string {
	setup, op, p90, rate := 0.05*norm, 0.15*norm, 0.16*norm, 1e8/norm
	return fmt.Sprintf("workload flux-structured  traced=false  ops_attempted=100  ops_failed=0\n"+
		"  %-36s %14.6g s\n  %-36s %14.6g s\n  %-36s %14.6g s\n  %-36s %14.6g 1/s\n"+
		"  %-36s %14.6g MiB\n  %-36s %14.6g MiB\n  %-36s %14.6g s\n  %-36s %14.6g s\n",
		"setup_s", setup, "op_s_p50", op, "op_s_p90", p90, "cell_updates_per_s", rate,
		"alloc_mb_per_op", 26.1, "resident_mb", 80.0, "host.raw_op_s_p50", 0.18*raw, "host.raw_setup_s", 0.06*raw) +
		fmt.Sprintf(`{"correct":true,"attempted":100,"failed":0,"metrics":{`+
			`"setup_s":{"value":%g,"unit":"s"},"op_s_p50":{"value":%g,"unit":"s"},"op_s_p90":{"value":%g,"unit":"s"},`+
			`"cell_updates_per_s":{"value":%g,"unit":"1/s"},"alloc_mb_per_op":{"value":26.1,"unit":"MiB"},`+
			`"resident_mb":{"value":80,"unit":"MiB"}}}`, setup, op, p90, rate)
}

// TestRawBoundsJudgeRawMetricsWhenLayoutsDiffer: on the repository's
// BENCHMARK.json, setup_s and op_s_p50 are judged on their raw
// counterparts under their own bounds, the allocation and residency metrics
// as they are, and op_s_p90 and cell_updates_per_s not at all. The raw
// metrics come from the printed table, not the result line. A change whose
// normalised metrics moved by 30 % while its raw times held passes; one whose
// raw op time rose by 30 % regresses; a run that prints no raw metrics stops
// the comparison, naming them.
func TestRawBoundsJudgeRawMetricsWhenLayoutsDiffer(t *testing.T) {
	_, bounds, _, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"), "all")
	if err != nil {
		t.Fatal(err)
	}
	judged, skipped := rawBounds(bounds)
	var names []string
	for _, b := range judged {
		names = append(names, b.Name)
		if b.Name == "host.raw_op_s_p50" && b.Bound != 0.2 || b.Name == "host.raw_setup_s" && b.Bound != 0.25 {
			t.Errorf("%s judged under bound %g, not its normalised metric's", b.Name, b.Bound)
		}
	}
	if want := []string{"host.raw_setup_s", "host.raw_op_s_p50", "alloc_mb_per_op", "resident_mb"}; !slices.Equal(names, want) {
		t.Fatalf("judged %q, want %q", names, want)
	}
	if want := []string{"op_s_p90", "cell_updates_per_s"}; !slices.Equal(skipped, want) {
		t.Fatalf("not comparable %q, want %q", skipped, want)
	}

	base := []string{rawLine(1, 1), rawLine(1.01, 1.01), rawLine(0.99, 0.99)}
	shifted := []string{rawLine(1.3, 1), rawLine(1.31, 1.01), rawLine(1.29, 0.99)}
	var out bytes.Buffer
	if err := report(&out, bounds, pairsOf(t, base, shifted)); !errors.Is(err, errRegressed) {
		t.Fatalf("normalised metrics 30 %% worse did not regress when judged as they are\n%s", out.String())
	}
	out.Reset()
	if err := report(&out, judged, pairsOf(t, base, shifted)); err != nil {
		t.Fatalf("raw metrics unchanged, yet report = %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "op_s_p90") || strings.Contains(out.String(), "cell_updates_per_s") {
		t.Errorf("a metric that is not comparable was judged:\n%s", out.String())
	}
	slower := []string{rawLine(1, 1.3), rawLine(1.01, 1.31), rawLine(0.99, 1.29)}
	out.Reset()
	err = report(&out, judged, pairsOf(t, base, slower))
	rows := strings.Split(out.String(), "\n")
	i := slices.IndexFunc(rows, func(r string) bool { return strings.HasPrefix(r, "host.raw_op_s_p50 ") })
	if !errors.Is(err, errRegressed) || i < 0 || !strings.Contains(rows[i], "REGRESSION") {
		t.Fatalf("raw times 30 %% worse: report = %v, want host.raw_op_s_p50 to regress\n%s", err, out.String())
	}

	// Without its table a run's result line has no raw metric: compare
	// refuses to judge 0 against 0.
	run := func(k int, workload string, seed int, trace bool) (result, error) {
		out := rawLine(1, 1)
		if k == 1 {
			out = out[strings.LastIndex(out, "\n")+1:]
		}
		return parseResult([]byte(out))
	}
	out.Reset()
	err = compare(&out, []string{"flux-structured"}, judged, 2, run)
	if err == nil || errors.Is(err, errRegressed) || !strings.Contains(err.Error(), "change run of seed 1 reports no value for host.raw_setup_s, host.raw_op_s_p50") {
		t.Fatalf("compare on runs without raw metrics = %v\n%s", err, out.String())
	}
}

func TestSymbolAddr(t *testing.T) {
	nm := "  4a3f20 T main.(*yardstick).run\n  4a3f00 T main.(*yardstick).runAll\n  5c0000 D main.x\n"
	if addr, ok := symbolAddr(nm, "main.(*yardstick).run"); !ok || addr != 0x4a3f20 || addr%64 != 32 {
		t.Fatalf("symbolAddr = %#x, %v", addr, ok)
	}
	if _, ok := symbolAddr(nm, "main.missing"); ok {
		t.Fatal("found a symbol that is not there")
	}
}

// TestLoadSpecReadsTheRepositoryBenchmark: the repository's own
// BENCHMARK.json parses, declares flux-structured, bounds op_s_p50 and sets
// a run length; "all" is its four workloads in file order; a workload it
// does not declare is an error.
func TestLoadSpecReadsTheRepositoryBenchmark(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	workloads, bounds, seconds, err := loadSpec(path, "flux-structured")
	if err != nil || seconds < 1 || !slices.Equal(workloads, []string{"flux-structured"}) {
		t.Fatalf("loadSpec: %q, %d s, %v", workloads, seconds, err)
	}
	all, _, _, err := loadSpec(path, "all")
	if want := []string{"flux-structured", "usolve-jacobi-p4", "usolve-amg-p1", "serve-mixed"}; err != nil || !slices.Equal(all, want) {
		t.Fatalf("loadSpec(all) = %q, %v; want %q", all, err, want)
	}
	found := false
	for _, b := range bounds {
		found = found || b.Name == "op_s_p50" && b.Better == "lower" && b.Bound > 0
	}
	if !found {
		t.Fatalf("no op_s_p50 bound in %+v", bounds)
	}
	if _, _, _, err := loadSpec(path, "no-such-workload"); err == nil {
		t.Fatal("loadSpec accepted an undeclared workload")
	}
	bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bad, []byte(`{"workloads":[{"name":"w"}],"run_seconds":16,"end_to_end":[{"name":"m","better":"up","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadSpec(bad, "w"); err == nil {
		t.Fatal("loadSpec accepted better \"up\"")
	}
}

func TestRunRejectsMissingFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{{}, {"-base", "HEAD"}, {"-workload", "flux-structured"}, {"-base", "HEAD", "-workload", "x", "-n", "0"}} {
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run(%q) accepted it", args)
		}
	}
}
