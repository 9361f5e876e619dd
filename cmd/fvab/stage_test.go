package main

import (
	"bytes"
	"errors"
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
