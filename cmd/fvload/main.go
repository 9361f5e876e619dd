// Command fvload is the open-loop load generator for a remote fvserve
// daemon: it replays a seeded workload spec — exponential arrivals, a
// weighted mix of scenario/payload bodies — against the target over HTTP
// and reports sustained throughput, latency quantiles and the server's memo
// hits per workload item. The arrival and quantile arithmetic is
// internal/loadgen, whose arrival plans internal/serve's lifecycle test also
// replays; the repository benchmark's serve-mixed workload does not use it —
// benchmark/servemix.go runs its own open loop against an in-process server.
//
// Usage:
//
//	fvload -target http://host:8080 -requests 200 -rate 50 -seed 1
//	fvload -target http://host:8080 -spec workload.json -json report.json
//
// A workload spec is a JSON file in the loadgen.Spec format:
//
//	{
//	  "requests": 200,
//	  "rate_per_sec": 50,
//	  "seed": 1,
//	  "items": [
//	    {"name": "steps1", "weight": 2,
//	     "body": {"scenario": {"parts": 8, "precond": "amg", "tol": 1e-2}, "steps": 1}},
//	    {"name": "steps3", "weight": 1,
//	     "body": {"scenario": {"parts": 8, "precond": "amg", "tol": 1e-2}, "steps": 3}}
//	  ]
//	}
//
// -requests, -rate and -seed override the spec's values when set, as do
// -retries and -retry-backoff for the retry policy: rejected shots (429,
// 503, transport failure) re-fire with seeded exponential backoff, never
// waiting less than the server's Retry-After advice. Without -spec, the
// default workload drives the 15360-cell benchmark scenario with a mixed
// payload (default wells / explicit wells / 3-step).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/-help: usage already printed, exit clean
		}
		fmt.Fprintln(os.Stderr, "fvload:", err)
		os.Exit(1)
	}
}

// defaultSpec is the workload used without -spec: the benchmark scenario
// under a mixed payload, so the target's memo sees repeats beside misses of
// different step counts.
func defaultSpec() loadgen.Spec {
	scenario := `"scenario":{"parts":8,"precond":"amg","tol":1e-2}`
	wells := `"wells":[{"cell":0,"rate":1.5},{"cell":15359,"rate":-1.5}]`
	return loadgen.Spec{
		Requests:   100,
		RatePerSec: 40,
		Seed:       1,
		Items: []loadgen.Item{
			{Name: "steps1-default", Weight: 2, Body: json.RawMessage(`{` + scenario + `,"steps":1}`)},
			{Name: "steps1-wells", Weight: 2, Body: json.RawMessage(`{` + scenario + `,"steps":1,` + wells + `}`)},
			{Name: "steps3-wells", Weight: 1, Body: json.RawMessage(`{` + scenario + `,"steps":3,` + wells + `}`)},
		},
	}
}

// report is the fvload JSON output: the target, the spec that was replayed,
// and the loadgen report.
type report struct {
	Target string         `json:"target"`
	Spec   loadgen.Spec   `json:"spec"`
	Report loadgen.Report `json:"report"`
}

// run executes the tool with explicit argv and streams — the testable entry
// the table-driven CLI tests drive.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fvload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target   = fs.String("target", "", "base URL of the fvserve daemon (required), e.g. http://host:8080")
		specPath = fs.String("spec", "", "workload spec file (JSON, loadgen.Spec format; default: built-in mixed workload)")
		requests = fs.Int("requests", 0, "override the spec's arrival count")
		rate     = fs.Float64("rate", 0, "override the spec's arrival rate [req/s]")
		seed     = fs.Int64("seed", 0, "override the spec's arrival seed")
		jsonPath = fs.String("json", "", "write the JSON report here")
		timeout  = fs.Duration("timeout", 120*time.Second, "per-request HTTP timeout")
		retries  = fs.Int("retries", -1, "override the spec's max retries per shot on 429/503/transport failure (-1 = spec value)")
		backoff  = fs.Float64("retry-backoff", 0, "override the spec's retry backoff base [s] (0 = spec value)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("-target is required")
	}
	if *requests < 0 {
		return fmt.Errorf("-requests must be non-negative, got %d", *requests)
	}
	if *rate < 0 {
		return fmt.Errorf("-rate must be non-negative, got %g", *rate)
	}
	if *timeout <= 0 {
		return fmt.Errorf("-timeout must be positive, got %v", *timeout)
	}
	if *retries < -1 {
		return fmt.Errorf("-retries must be -1 (spec value) or non-negative, got %d", *retries)
	}
	if *backoff < 0 {
		return fmt.Errorf("-retry-backoff must be non-negative, got %g", *backoff)
	}

	spec := defaultSpec()
	if *specPath != "" {
		blob, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		spec = loadgen.Spec{}
		if err := json.Unmarshal(blob, &spec); err != nil {
			return fmt.Errorf("parsing %s: %w", *specPath, err)
		}
	}
	if *requests > 0 {
		spec.Requests = *requests
	}
	if *rate > 0 {
		spec.RatePerSec = *rate
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *retries >= 0 {
		spec.MaxRetries = *retries
	}
	if *backoff > 0 {
		spec.RetryBackoffSeconds = *backoff
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	base := strings.TrimRight(*target, "/")
	client := &http.Client{Timeout: *timeout}
	if err := checkHealth(client, base); err != nil {
		return err
	}

	d := loadgen.Driver{Post: newPoster(client, base+"/v1/solve")}
	fmt.Fprintf(stdout, "fvload: %d arrivals at %g req/s (seed %d, %d items) against %s\n",
		spec.Requests, spec.RatePerSec, spec.Seed, len(spec.Items), base)
	rep, err := d.Run(spec)
	if err != nil {
		return err
	}
	if err := render(stdout, rep); err != nil {
		return err
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Target: base, Spec: spec, Report: *rep}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if rep.Completed == 0 {
		return fmt.Errorf("no request completed (%d rejected, %d errors) — target overloaded or unreachable", rep.Rejected429, rep.Errors)
	}
	return nil
}

// checkHealth verifies the target is up and serving before firing load.
func checkHealth(client *http.Client, base string) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("target health check: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("target health check: HTTP %d (draining or not an fvserve?)", resp.StatusCode)
	}
	return nil
}

// solveMarkers is the slice of the solve response fvload aggregates.
type solveMarkers struct {
	MemoHit bool `json:"memo_hit"`
}

// newPoster builds the HTTP poster: one POST per shot, response markers
// decoded on 200, status passed through otherwise.
func newPoster(client *http.Client, url string) loadgen.Poster {
	return func(it loadgen.Item) loadgen.PostResult {
		resp, err := client.Post(url, "application/json", bytes.NewReader(it.Body))
		if err != nil {
			return loadgen.PostResult{Err: err}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return loadgen.PostResult{
				Status:            resp.StatusCode,
				RetryAfterSeconds: parseRetryAfter(resp.Header.Get("Retry-After")),
			}
		}
		var m solveMarkers
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			return loadgen.PostResult{Err: err}
		}
		return loadgen.PostResult{Status: resp.StatusCode, MemoHit: m.MemoHit}
	}
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header (the
// only form fvserve emits); anything unparsable means no advice.
func parseRetryAfter(v string) float64 {
	if v == "" {
		return 0
	}
	sec, err := strconv.ParseFloat(v, 64)
	if err != nil || sec < 0 {
		return 0
	}
	return sec
}

// render writes the human-readable report.
func render(w io.Writer, rep *loadgen.Report) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "completed\t%d\t(memo hits %d)\n", rep.Completed, rep.MemoHits)
	fmt.Fprintf(tw, "rejected 429\t%d\t\n", rep.Rejected429)
	fmt.Fprintf(tw, "errors\t%d\t\n", rep.Errors)
	fmt.Fprintf(tw, "retries\t%d\t(%d shots gave up)\n", rep.Retries, rep.GaveUp)
	fmt.Fprintf(tw, "sustained\t%.1f req/s\tover %.2f s\n", rep.SustainedReqPerSec, rep.DurationSeconds)
	fmt.Fprintf(tw, "latency p50 / p99 / max\t%.4f / %.4f / %.4f s\t\n", rep.P50Seconds, rep.P99Seconds, rep.MaxSeconds)
	for _, it := range rep.PerItem {
		fmt.Fprintf(tw, "  item %s\t%d sent, %d completed\tp50 %.4f s, max %.4f s, memo %d\n",
			it.Name, it.Sent, it.Completed, it.P50Seconds, it.MaxSeconds, it.MemoHits)
	}
	return tw.Flush()
}
