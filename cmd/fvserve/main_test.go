package main

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/serve"
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
		{"negative rate", []string{"-rate", "-1"}, "-rate must be non-negative"},
		{"negative burst", []string{"-burst", "-1"}, "-burst must be non-negative"},
		{"negative deadline", []string{"-deadline", "-3s"}, "-deadline must be non-negative"},
		{"negative drain timeout", []string{"-drain-timeout", "-1s"}, "-drain-timeout must be non-negative"},
		{"bad flag value", []string{"-queue", "many"}, "invalid value"},
		{"undefined flag", []string{"-bogus"}, "flag provided but not defined"},
		{"batch flag removed", []string{"-batch", "2"}, "flag provided but not defined: -batch"},
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

// TestDefaultsEchoServe pins that every flag with a serve.Default* constant
// defaults to it, so a bare fvserve serves what serve.Options{} does.
func TestDefaultsEchoServe(t *testing.T) {
	c, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		flag      string
		got, want int
	}{
		{"-cache", c.opts.CacheCapacity, serve.DefaultCacheCapacity},
		{"-engines", c.opts.EnginesPerScenario, serve.DefaultEnginesPerScenario},
		{"-queue", c.opts.QueueDepth, serve.DefaultQueueDepth},
		{"-max-cells", c.opts.MaxCells, serve.DefaultMaxCells},
		{"-memo", c.opts.MemoCapacity, serve.DefaultMemoCapacity},
	} {
		if f.got != f.want {
			t.Errorf("%s defaults to %d, the serving layer's default is %d", f.flag, f.got, f.want)
		}
	}
}
