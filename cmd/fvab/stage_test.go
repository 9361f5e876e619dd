package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// benchOutput is canned go test -bench output at -cpu 1: a header, a case
// with allocation columns, a case with a custom metric, and the footer.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/umesh
cpu: AMD EPYC
BenchmarkUsolveAMGStage/pre         	   18034	     18969 ns/op
BenchmarkUsolveAMGStage/restrict    	    5572	     60528 ns/op	       0 B/op	       0 allocs/op
BenchmarkUsolveAMGStage/coarse-solve	    5379	     65338 ns/op	        12.50 sweeps/op
PASS
`

func TestParseBenchReadsNsPerOp(t *testing.T) {
	got, err := parseBench([]byte(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkUsolveAMGStage/pre":          18969,
		"BenchmarkUsolveAMGStage/restrict":     60528,
		"BenchmarkUsolveAMGStage/coarse-solve": 65338,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s: parsed %g ns/op, want %g", name, got[name], v)
		}
	}
	for _, out := range []string{"", "PASS\nok  \trepro/internal/umesh\t0.1s\n", "BenchmarkX\t10\tfast ns/op\n"} {
		if _, err := parseBench([]byte(out)); err == nil {
			t.Errorf("parseBench(%q) accepted it", out)
		}
	}
}

// TestStageArgsForwardBenchtime: every run of a test binary selects the
// pattern's benchmarks alone, once, at -cpu 1, and -benchtime reaches it as
// -test.benchtime only when it is given.
func TestStageArgsForwardBenchtime(t *testing.T) {
	base := []string{"-test.run", "^$", "-test.bench", "Stages/compile", "-test.cpu", "1", "-test.count", "1"}
	if got := stageArgs("Stages/compile", ""); !slices.Equal(got, base) {
		t.Errorf("stageArgs without -benchtime = %q, want %q", got, base)
	}
	want := append(slices.Clone(base), "-test.benchtime", "5s")
	if got := stageArgs("Stages/compile", "5s"); !slices.Equal(got, want) {
		t.Errorf("stageArgs with -benchtime 5s = %q, want %q", got, want)
	}
}

func TestCompareStagesAlternatesAndCountsWins(t *testing.T) {
	// The change is 40 % faster on pre in every round, slower on restrict in
	// rounds 1 and 2 only, and has a case the base lacks.
	var calls []int
	round := 0
	run := func(k int) (map[string]float64, error) {
		calls = append(calls, k)
		if len(calls)%2 == 1 {
			round++
		}
		if k == 0 {
			return map[string]float64{"BenchmarkS/pre": 10000, "BenchmarkS/restrict": 40000}, nil
		}
		restrict := 30000.0
		if round <= 2 {
			restrict = 50000
		}
		return map[string]float64{"BenchmarkS/pre": 6000, "BenchmarkS/restrict": restrict, "BenchmarkS/pre-go": 20000}, nil
	}
	var out bytes.Buffer
	if err := compareStages(&out, 4, run); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 1, 0, 0, 1, 1, 0}; !slices.Equal(calls, want) {
		t.Errorf("run order %v, want %v", calls, want)
	}
	text := out.String()
	for _, want := range []string{
		"round  2 (change first): 3 cases",
		"BenchmarkS/pre                               10 [10, 10]",
		"-40.0%   4/4",
		"2/4",
		"BenchmarkS/pre-go",
		"only in the change",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
}

func TestCompareStagesStopsOnAFailedRun(t *testing.T) {
	boom := errors.New("test binary crashed")
	err := compareStages(&bytes.Buffer{}, 3, func(k int) (map[string]float64, error) {
		if k == 1 {
			return nil, boom
		}
		return map[string]float64{"BenchmarkS/pre": 1}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("compareStages returned %v, want the run's error", err)
	}
}

func TestCompareStagesJudgesEachCase(t *testing.T) {
	// Ten rounds of canned go test -bench output per side. The change is
	// 40 % faster on pre and 25 % slower on restrict in every round, faster
	// on post in every round by 10 ns, far inside the base's spread, faster
	// on smooth in only 8 rounds, and on edge in exactly 9.
	calls := 0
	run := func(k int) (map[string]float64, error) {
		calls++
		round := (calls + 1) / 2
		r := float64(round)
		ns := map[string][2]float64{
			"pre":      {10000 + r, 6000 + r},
			"restrict": {40000 + r, 50000 + r},
			"post":     {9000 + 200*r, 8990 + 200*r},
			"smooth":   {20000 + r, map[bool]float64{true: 10000, false: 30000}[round <= 8]},
			"edge":     {30000 + r, map[bool]float64{true: 20000, false: 40000}[round <= 9]},
		}
		var out strings.Builder
		out.WriteString("goos: linux\ngoarch: amd64\npkg: repro/internal/umesh\n")
		for _, name := range []string{"pre", "restrict", "post", "smooth", "edge"} {
			fmt.Fprintf(&out, "BenchmarkS/%-10s\t   10000\t%10.0f ns/op\n", name, ns[name][k])
		}
		out.WriteString("PASS\n")
		return parseBench([]byte(out.String()))
	}
	var out bytes.Buffer
	if err := compareStages(&out, 10, run); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"pre":      "10/10  better",
		"restrict": " 0/10  worse",
		"post":     "10/10  within noise",
		"smooth":   " 8/10  within noise",
		"edge":     " 9/10  better",
	} {
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "BenchmarkS/"+name+" ") {
				line = l
			}
		}
		if !strings.HasSuffix(line, want) {
			t.Errorf("%s: row %q does not end in %q:\n%s", name, line, want, out.String())
		}
	}
}

func TestStageVerdictNeedsBothWinsAndTheIQR(t *testing.T) {
	base := [3]float64{90, 100, 110}
	for _, tc := range []struct {
		wins, losses int
		change       [3]float64
		want         string
	}{
		{9, 1, [3]float64{60, 70, 80}, "better"},
		{8, 2, [3]float64{60, 70, 80}, "within noise"},
		{10, 0, [3]float64{85, 95, 105}, "within noise"}, // 5 below, inside the IQR of 20
		{1, 9, [3]float64{115, 125, 135}, "worse"},
		{0, 10, [3]float64{110, 120, 130}, "within noise"}, // exactly the IQR away
	} {
		if got := stageVerdict(tc.wins, tc.losses, 10, base, tc.change); got != tc.want {
			t.Errorf("wins %d, losses %d, change %v: %q, want %q", tc.wins, tc.losses, tc.change, got, tc.want)
		}
	}
}
