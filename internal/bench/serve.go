package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serve"
)

// This file is the serving-layer load experiment: a resident-engine server
// (internal/serve) stood up in-process, measured the way a latency SLO would
// measure it. Phases: a cold-start request that pays scenario compilation
// (mesh, RCB, engine pool, preconditioner setup), warm-cache probes that pay
// one resident solve each (memoization bypassed), memo probes that repeat
// the cold payload and must be served from the result memo without a single
// new engine solve, a bit-identity check against the one-shot path, and an
// open-loop load phase driven through internal/loadgen — the same seeded
// arrival/quantile engine cmd/fvload uses against a remote daemon — over a
// mixed workload (short and long jobs, memoizable and not) so the SJF
// scheduler, the batcher and the memo all engage. The JSON report
// (BENCH_serve.json) is the serving path's trajectory anchor; the cold/warm
// ratio is the compile-amortization headline, warm/memo the solve-
// amortization one.

// ServeConfig sizes the serving-layer load experiment.
type ServeConfig struct {
	// Scenario selects the compiled configuration under test. Default: the
	// 15360-cell radial benchmark mesh, 8 RCB parts, the AMG rung at the
	// interactive tolerance 1e-2 — the compile-heavy/solve-light shape a
	// serving layer exists for.
	Scenario serve.Scenario
	// Steps is the backward-Euler step count per request (default 1).
	Steps int
	// WarmProbes is how many sequential warm-cache requests to measure; the
	// reported warm latency is their median (default 5). The memo phase runs
	// the same number of probes.
	WarmProbes int
	// Requests is the open-loop arrival count (default 60).
	Requests int
	// RatePerSec is the open-loop arrival rate (default 50 — above the
	// single-core service rate, so the load phase exercises queueing and
	// batched dispatch, not just round trips).
	RatePerSec float64
	// Seed seeds the exponential inter-arrival draws (default 1).
	Seed int64
	// ChaosRequests sizes the fault-injection phase: that many copies of the
	// reference payload against a second, fault-injected server (default 40;
	// negative disables the phase). The fault plan derives from Seed.
	ChaosRequests int
	// Server overrides the serving options. Defaults: 2 resident engines per
	// scenario (the cold request compiles the whole pool), queue depth 24;
	// everything else the serve package's own defaults.
	Server serve.Options
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Scenario == (serve.Scenario{}) {
		c.Scenario = serve.Scenario{Parts: 8, Precond: "amg", Tol: 1e-2}
	}
	if c.Steps == 0 {
		c.Steps = 1
	}
	if c.WarmProbes == 0 {
		c.WarmProbes = 5
	}
	if c.Requests == 0 {
		c.Requests = 60
	}
	if c.RatePerSec == 0 {
		c.RatePerSec = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ChaosRequests == 0 {
		c.ChaosRequests = 40
	}
	if c.Server.EnginesPerScenario == 0 {
		c.Server.EnginesPerScenario = 2
	}
	if c.Server.QueueDepth == 0 {
		c.Server.QueueDepth = 24
	}
	return c
}

// ServeLoad is the experiment outcome. It serializes to the BENCH_serve.json
// baseline future PRs compare against.
type ServeLoad struct {
	Scenario    serve.Scenario `json:"scenario"`
	ScenarioKey string         `json:"scenario_key"`
	Cells       int            `json:"cells"`
	// StepsPerRequest, EnginesPerScenario, QueueDepth, BatchMax and
	// MemoCapacity echo the request shape and the serving knobs under test
	// (defaults resolved by serve.Options.WithDefaults, so bench cannot
	// drift from the serving layer).
	StepsPerRequest    int    `json:"steps_per_request"`
	EnginesPerScenario int    `json:"engines_per_scenario"`
	QueueDepth         int    `json:"queue_depth"`
	BatchMax           int    `json:"batch_max"`
	MemoCapacity       int    `json:"memo_capacity"`
	NumCPU             int    `json:"num_cpu"`
	GOMAXPROCS         int    `json:"gomaxprocs"`
	GoVersion          string `json:"go_version"`

	// ColdSeconds is the cache-miss request's latency (compilation of the
	// whole engine pool plus one solve); CompileSeconds is the server-reported
	// compile share of it. WarmSeconds is the median warm-cache latency over
	// WarmProbes sequential engine solves (WarmMinSeconds the fastest), and
	// WarmSpeedup = ColdSeconds / WarmSeconds — the compile-amortization
	// headline, required ≥ 5 for the benchmark scenario.
	ColdSeconds    float64 `json:"cold_seconds"`
	CompileSeconds float64 `json:"compile_seconds"`
	WarmSeconds    float64 `json:"warm_seconds"`
	WarmMinSeconds float64 `json:"warm_min_seconds"`
	WarmSpeedup    float64 `json:"warm_speedup"`

	// MemoSeconds is the median latency of memo-served repeats of the cold
	// payload (MemoMinSeconds the fastest) — no engine runs at all — and
	// MemoSpeedup = WarmSeconds / MemoSeconds, the solve-amortization
	// headline, required ≥ 20 for the benchmark scenario. The memo phase
	// fails outright if the server's Solves counter moves.
	MemoSeconds    float64 `json:"memo_seconds"`
	MemoMinSeconds float64 `json:"memo_min_seconds"`
	MemoSpeedup    float64 `json:"memo_speedup"`

	// BitIdentical records that the cold response, every warm
	// (engine-reused) response, every memo-served response, and a fresh
	// one-shot compile-and-solve all hashed the same final pressure field;
	// PressureSHA256 is that hash.
	BitIdentical   bool   `json:"bit_identical"`
	PressureSHA256 string `json:"pressure_sha256"`

	// Load is the open-loop phase: a loadgen report over the mixed workload
	// (memoizable short jobs, memo-bypassing short and long jobs).
	Load loadgen.Report `json:"load"`
	// Chaos is the fault-injection phase: a seeded plan of panics, stalls
	// and breakdowns against a second server, scored on availability of the
	// non-faulted requests (gate ≥ 0.99) and bit-identity of every success.
	Chaos *ChaosResult `json:"chaos,omitempty"`
	// Stats is the server's own counter block at the end of the run (cache
	// hits/misses, memo hits, scheduler decisions, admission rejections,
	// batching, phase seconds).
	Stats serve.StatsSnapshot `json:"stats"`
}

// RunServeLoad stands up a resident-engine server in-process and measures
// cold-start latency, warm-cache latency, memo-hit latency, bit-identity
// against the one-shot path, and open-loop load behavior.
func RunServeLoad(cfg ServeConfig) (*ServeLoad, error) {
	cfg = cfg.withDefaults()
	srv := serve.New(cfg.Server)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	url := ts.URL + "/v1/solve"
	client := ts.Client()

	post := func(body []byte) (*serve.SolveResponse, int, float64, error) {
		start := time.Now()
		httpRes, err := client.Post(url, "application/json", bytes.NewReader(body))
		sec := time.Since(start).Seconds()
		if err != nil {
			return nil, 0, sec, err
		}
		defer httpRes.Body.Close()
		if httpRes.StatusCode != http.StatusOK {
			io.Copy(io.Discard, httpRes.Body)
			return nil, httpRes.StatusCode, sec, nil
		}
		var res serve.SolveResponse
		if err := json.NewDecoder(httpRes.Body).Decode(&res); err != nil {
			return nil, httpRes.StatusCode, sec, err
		}
		return &res, httpRes.StatusCode, sec, nil
	}

	req := serve.SolveRequest{Scenario: cfg.Scenario, Steps: cfg.Steps}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	noMemo := req
	noMemo.NoMemo = true
	noMemoBody, err := json.Marshal(noMemo)
	if err != nil {
		return nil, err
	}

	eff := cfg.Server.WithDefaults()
	out := &ServeLoad{
		Scenario:           cfg.Scenario.Normalized(),
		ScenarioKey:        cfg.Scenario.Key(),
		StepsPerRequest:    cfg.Steps,
		EnginesPerScenario: eff.EnginesPerScenario,
		QueueDepth:         eff.QueueDepth,
		BatchMax:           eff.BatchMax,
		MemoCapacity:       eff.MemoCapacity,
		NumCPU:             runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		GoVersion:          runtime.Version(),
	}

	// Phase 1: cold start — the request that misses the cache and compiles
	// the scenario's whole engine pool. It also seeds the result memo.
	cold, status, coldSec, err := post(body)
	if err != nil {
		return nil, fmt.Errorf("bench: serve cold request: %w", err)
	}
	if cold == nil {
		return nil, fmt.Errorf("bench: serve cold request: HTTP %d", status)
	}
	if cold.CacheHit {
		return nil, fmt.Errorf("bench: serve cold request unexpectedly hit the cache")
	}
	out.Cells = cold.Cells
	out.ColdSeconds = coldSec
	out.CompileSeconds = cold.Timings.CompileSeconds
	out.PressureSHA256 = cold.PressureSHA256

	// Phase 2: warm-cache probes — sequential, memo bypassed, so each
	// measures one resident solve with no queueing. The engines are reused
	// across them; their hashes must all equal the cold one.
	warm := make([]float64, 0, cfg.WarmProbes)
	identical := true
	for i := 0; i < cfg.WarmProbes; i++ {
		res, status, sec, err := post(noMemoBody)
		if err != nil {
			return nil, fmt.Errorf("bench: serve warm probe %d: %w", i, err)
		}
		if res == nil {
			return nil, fmt.Errorf("bench: serve warm probe %d: HTTP %d", i, status)
		}
		if !res.CacheHit {
			return nil, fmt.Errorf("bench: serve warm probe %d missed the cache", i)
		}
		if res.MemoHit {
			return nil, fmt.Errorf("bench: serve warm probe %d hit the memo despite no_memo", i)
		}
		if res.PressureSHA256 != out.PressureSHA256 {
			identical = false
		}
		warm = append(warm, sec)
	}
	sorted := append([]float64(nil), warm...)
	sort.Float64s(sorted)
	out.WarmSeconds = loadgen.Quantile(sorted, 0.50)
	out.WarmMinSeconds = sorted[0]
	if out.WarmSeconds > 0 {
		out.WarmSpeedup = out.ColdSeconds / out.WarmSeconds
	}

	// Phase 3: memo probes — the cold payload again, now memoized. Every
	// response must be a memo hit on the cold solve's bits, and the server's
	// engine-solve counter must not move at all.
	solvesBefore := srv.Stats().Solves
	memoLat := make([]float64, 0, cfg.WarmProbes)
	for i := 0; i < cfg.WarmProbes; i++ {
		res, status, sec, err := post(body)
		if err != nil {
			return nil, fmt.Errorf("bench: serve memo probe %d: %w", i, err)
		}
		if res == nil {
			return nil, fmt.Errorf("bench: serve memo probe %d: HTTP %d", i, status)
		}
		if !res.MemoHit {
			return nil, fmt.Errorf("bench: serve memo probe %d missed the memo", i)
		}
		if res.PressureSHA256 != out.PressureSHA256 {
			identical = false
		}
		memoLat = append(memoLat, sec)
	}
	if solvesAfter := srv.Stats().Solves; solvesAfter != solvesBefore {
		return nil, fmt.Errorf("bench: memo probes triggered %d engine solves, want 0", solvesAfter-solvesBefore)
	}
	sort.Float64s(memoLat)
	out.MemoSeconds = loadgen.Quantile(memoLat, 0.50)
	out.MemoMinSeconds = memoLat[0]
	if out.MemoSeconds > 0 {
		out.MemoSpeedup = out.WarmSeconds / out.MemoSeconds
	}

	// Phase 4: bit-identity against the one-shot path — a fresh
	// compile-and-solve with no cache and no reuse must hash identically.
	oneShot, err := serve.OneShot(req)
	if err != nil {
		return nil, fmt.Errorf("bench: serve one-shot reference: %w", err)
	}
	if serve.PressureHash(oneShot.Pressure) != out.PressureSHA256 {
		identical = false
	}
	out.BitIdentical = identical

	// Phase 5: open-loop load — arrivals fire on their own schedule through
	// the shared loadgen engine, so the queue, the batcher, the admission
	// gate and the SJF scheduler all engage. The mix is heterogeneous on
	// purpose: memoizable short jobs (served from the memo), memo-bypassing
	// short jobs and 3x-longer well jobs, so the scheduler sees real cost
	// spread and the batcher sees repeated payloads.
	spec, err := serveLoadSpec(cfg, out.Cells)
	if err != nil {
		return nil, err
	}
	driver := loadgen.Driver{Post: func(it loadgen.Item) loadgen.PostResult {
		res, status, _, err := post(it.Body)
		if err != nil {
			return loadgen.PostResult{Err: err}
		}
		r := loadgen.PostResult{Status: status}
		if res != nil {
			r.Batched = res.Batched
			r.MemoHit = res.MemoHit
		}
		return r
	}}
	rep, err := driver.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("bench: serve load phase: %w", err)
	}
	out.Load = *rep
	out.Stats = srv.Stats()

	// Phase 6: chaos — a seeded fault plan against a second server over the
	// same payload, scored against the fault-free hash from phase 1.
	if cfg.ChaosRequests > 0 {
		chaos, err := runChaosPhase(cfg, body, out.PressureSHA256)
		if err != nil {
			return nil, fmt.Errorf("bench: serve chaos phase: %w", err)
		}
		out.Chaos = chaos
	}
	return out, nil
}

// serveLoadSpec is the load phase's workload mix: the memoizable cold
// payload against short and long memo-bypassing well jobs.
func serveLoadSpec(cfg ServeConfig, cells int) (loadgen.Spec, error) {
	base := serve.SolveRequest{Scenario: cfg.Scenario, Steps: cfg.Steps}
	wells := []serve.WellSpec{{Cell: 0, Rate: 1.5}, {Cell: cells - 1, Rate: -1.5}}
	short := base
	short.Wells = wells
	short.NoMemo = true
	long := short
	long.Steps = 3 * cfg.Steps
	spec := loadgen.Spec{
		Requests:   cfg.Requests,
		RatePerSec: cfg.RatePerSec,
		Seed:       cfg.Seed,
	}
	for _, it := range []struct {
		name   string
		weight int
		req    serve.SolveRequest
	}{
		{"memoized", 2, base},
		{"short-wells", 2, short},
		{"long-wells", 1, long},
	} {
		b, err := json.Marshal(it.req)
		if err != nil {
			return loadgen.Spec{}, err
		}
		spec.Items = append(spec.Items, loadgen.Item{Name: it.name, Weight: it.weight, Body: b})
	}
	return spec, nil
}

// WriteJSON writes the experiment as indented JSON — the BENCH_serve.json
// baseline format.
func (s *ServeLoad) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Render writes the experiment as a human-readable report.
func (s *ServeLoad) Render(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintf(tw, "Resident-engine serving — %d-cell scenario (%s, parts %d, tol %.0e), %d step/request, %d engines/scenario\n",
		s.Cells, s.Scenario.Precond, s.Scenario.Parts, s.Scenario.Tol, s.StepsPerRequest, s.EnginesPerScenario)
	fmt.Fprintf(tw, "host: %s, NumCPU %d, GOMAXPROCS %d\n\n", s.GoVersion, s.NumCPU, s.GOMAXPROCS)
	fmt.Fprintf(tw, "cold start (cache miss)\t%.4f s\t(compile %.4f s)\n", s.ColdSeconds, s.CompileSeconds)
	fmt.Fprintf(tw, "warm cache (median of resident solves)\t%.4f s\t(min %.4f s)\n", s.WarmSeconds, s.WarmMinSeconds)
	fmt.Fprintf(tw, "warm speedup\t%.1fx\t(required ≥ 5x)\n", s.WarmSpeedup)
	fmt.Fprintf(tw, "memo hit (median, no engine)\t%.4f s\t(min %.4f s)\n", s.MemoSeconds, s.MemoMinSeconds)
	fmt.Fprintf(tw, "memo speedup over warm\t%.1fx\t(required ≥ 20x)\n", s.MemoSpeedup)
	fmt.Fprintf(tw, "bit-identical to one-shot (incl. reuse + memo)\t%v\t\n\n", s.BitIdentical)
	l := s.Load
	fmt.Fprintf(tw, "open loop: %d arrivals at %.0f req/s (seed %d)\n", l.Requests, l.RatePerSec, l.Seed)
	fmt.Fprintf(tw, "completed\t%d\t(batched %d, memo hits %d)\n", l.Completed, l.BatchedRequests, l.MemoHits)
	fmt.Fprintf(tw, "rejected 429\t%d\t(errors %d)\n", l.Rejected429, l.Errors)
	fmt.Fprintf(tw, "sustained\t%.1f req/s\tover %.2f s\n", l.SustainedReqPerSec, l.DurationSeconds)
	fmt.Fprintf(tw, "latency p50 / p99 / max\t%.4f / %.4f / %.4f s\t\n", l.P50Seconds, l.P99Seconds, l.MaxSeconds)
	for _, it := range l.PerItem {
		fmt.Fprintf(tw, "  item %s\t%d sent, %d completed\tp50 %.4f s, memo %d\n",
			it.Name, it.Sent, it.Completed, it.P50Seconds, it.MemoHits)
	}
	if c := s.Chaos; c != nil {
		fmt.Fprintln(tw)
		fmt.Fprintf(tw, "chaos: %d requests under %d panics / %d stalls / %d breakdowns\n",
			c.Requests, c.PanicsFired, c.StallsFired, c.BreakdownsFired)
		fmt.Fprintf(tw, "completed\t%d\t(faulted %d, collateral %d)\n", c.Completed, c.Faulted, c.Collateral)
		fmt.Fprintf(tw, "availability (non-faulted)\t%.4f\t(required ≥ 0.99)\n", c.AvailabilityNonFaulted)
		fmt.Fprintf(tw, "bit-identical successes\t%v\t(engine panics %d, restarts %d, cancelled %d)\n",
			c.BitIdentical, c.EnginePanics, c.EngineRestarts, c.CancelledSolves)
	}
	fmt.Fprintln(tw)
	st := s.Stats
	fmt.Fprintf(tw, "server counters: %d requests, %d admitted, %d completed; cache %d hit / %d miss / %d evicted; memo %d hits (%d resident); %d solves (%d batches shared %d solves); sched %d decisions / %d reorders / %d aged picks\n",
		st.Requests, st.Admitted, st.Completed, st.CacheHits, st.CacheMisses, st.Evictions,
		st.MemoHits, st.MemoEntries, st.Solves, st.Batches, st.SharedSolves,
		st.SchedDecisions, st.SchedReorders, st.SchedAgedPicks)
	if s.GOMAXPROCS == 1 {
		fmt.Fprintln(tw, "note: single-core host — sustained throughput is one engine's; the pool and batcher still exercise the full dispatch path")
	}
	return tw.Flush()
}
