package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestHelpReturnsErrHelp pins the -h contract: run surfaces flag.ErrHelp
// (which main turns into a clean exit 0) after printing usage to stderr.
func TestHelpReturnsErrHelp(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-h"}, &stdout, &stderr)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr.String(), "-experiment") {
		t.Errorf("usage output missing flag docs:\n%s", stderr.String())
	}
}

// TestRunCLIValidation is the table-driven CLI test: unknown -experiment
// values produce a usage error instead of silently running a default, and
// the engine flags are gone — every functional run is the fabric engine.
func TestRunCLIValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error
	}{
		{"unknown experiment", []string{"-experiment", "table9"}, "unknown experiment"},
		{"empty experiment", []string{"-experiment", ""}, "unknown experiment"},
		{"removed engine flag", []string{"-experiment", "table1", "-engine", "flat"}, "flag provided but not defined"},
		{"removed workers flag", []string{"-experiment", "table1", "-workers", "2"}, "flag provided but not defined"},
		{"bad dims", []string{"-experiment", "table1", "-dims", "12x10"}, "dims"},
		{"undefined flag", []string{"-bogus"}, "flag provided but not defined"},
		{"unwritable cpuprofile", []string{"-experiment", "table1", "-cpuprofile", "/no/such/dir/prof.out"}, "cpuprofile"},
		{"unwritable memprofile", []string{"-experiment", "table1", "-memprofile", "/no/such/dir/heap.out"}, "memprofile"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			err := run(c.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%v) accepted, want error containing %q", c.args, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("run(%v) error %q does not contain %q", c.args, err, c.wantErr)
			}
		})
	}
}

// TestRunTable1Small exercises one cheap valid experiment end to end through
// the CLI entry, pinning the success path the validation table skips.
func TestRunTable1Small(t *testing.T) {
	if testing.Short() {
		t.Skip("functional experiment in -short mode")
	}
	var stdout, stderr strings.Builder
	if err := run([]string{"-experiment", "table1", "-dims", "4x4x2", "-apps", "1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "==== table1 ====") {
		t.Errorf("output missing experiment banner:\n%s", stdout.String())
	}
}

// TestRunCPUProfile pins the -cpuprofile satellite: a profiled run writes a
// non-empty pprof file through the testable run() entry.
func TestRunCPUProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("functional experiment in -short mode")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	var stdout, stderr strings.Builder
	if err := run([]string{"-experiment", "table1", "-dims", "4x4x2", "-apps", "1", "-cpuprofile", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if info.Size() == 0 {
		t.Error("profile file is empty")
	}
}

// TestRunMemProfile pins the -memprofile satellite: a profiled run writes a
// non-empty pprof heap profile after the experiments finish.
func TestRunMemProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("functional experiment in -short mode")
	}
	path := filepath.Join(t.TempDir(), "heap.pprof")
	var stdout, stderr strings.Builder
	if err := run([]string{"-experiment", "table1", "-dims", "4x4x2", "-apps", "1", "-memprofile", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("heap profile not written: %v", err)
	}
	if info.Size() == 0 {
		t.Error("heap profile file is empty")
	}
}

// TestExperimentAllMatchesGolden pins every number the paper evaluation
// prints — Tables 1–4, Fig. 8 and the ablations at the default functional
// mesh — byte for byte against testdata/all.golden. The golden is amd64's:
// on arm64 Go may contract products into fused multiply-adds in the GPU
// twin's kernels.fluxCell (Table 1's functional-validation line), in
// perfmodel.CS2Params.Project (every CS-2 model figure) and in
// roofline.Chart (where Fig. 8 plots its dots), so the test runs on amd64
// only.
func TestExperimentAllMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden output is amd64's, this is %s", runtime.GOARCH)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := run([]string{"-experiment", "all"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from the golden:\ngot  %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, the golden %d", len(gl), len(wl))
	}
}
