package main

import (
	"errors"
	"flag"
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
	for _, want := range []string{"-addr", "-engines", "-deadline", "-drain-timeout"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("usage output missing %s:\n%s", want, stderr.String())
		}
	}
}

// TestRunCLIValidation drives the flag matrix: invalid values must produce
// a usage error before any listener or engine comes up.
func TestRunCLIValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error
	}{
		{"zero cache", []string{"-cache", "0"}, "-cache must be positive"},
		{"negative cache", []string{"-cache", "-2"}, "-cache must be positive"},
		{"zero engines", []string{"-engines", "0"}, "-engines must be positive"},
		{"zero queue", []string{"-queue", "0"}, "-queue must be positive"},
		{"zero batch", []string{"-batch", "0"}, "-batch must be positive"},
		{"negative rate", []string{"-rate", "-1"}, "-rate must be non-negative"},
		{"negative burst", []string{"-burst", "-1"}, "-burst must be non-negative"},
		{"negative deadline", []string{"-deadline", "-3s"}, "-deadline must be non-negative"},
		{"negative drain timeout", []string{"-drain-timeout", "-1s"}, "-drain-timeout must be non-negative"},
		{"bad flag value", []string{"-queue", "many"}, "invalid value"},
		{"undefined flag", []string{"-bogus"}, "flag provided but not defined"},
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
