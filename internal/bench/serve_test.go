package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestServeRecordPressureHashReproduces pins the end-to-end fixed point of
// the serving path: a one-shot solve of the experiment's default scenario
// (15360 cells, 8 parts, AMG at tolerance 1e-2) hashes to the pressure_sha256
// committed in BENCH_serve.json — the value `fvserve -selftest` reproduces —
// so a change to any float on the AMG path fails here, not in a re-record.
func TestServeRecordPressureHashReproduces(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Scenario serve.Scenario `json:"scenario"`
		Steps    int            `json:"steps_per_request"`
		Hash     string         `json:"pressure_sha256"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	cfg := ServeConfig{}.withDefaults()
	if rec.Scenario != cfg.Scenario.Normalized() || rec.Steps != cfg.Steps {
		t.Fatalf("BENCH_serve.json records scenario %+v × %d steps, the experiment's default is %+v × %d",
			rec.Scenario, rec.Steps, cfg.Scenario.Normalized(), cfg.Steps)
	}
	// The recorded hash is an amd64 value: the umesh float64 kernels carry no
	// explicit anti-FMA roundings, so an architecture that contracts a·b + c
	// into one rounding produces a different (equally valid) field.
	if runtime.GOARCH != "amd64" {
		t.Skipf("pressure_sha256 was recorded on amd64, this is %s", runtime.GOARCH)
	}
	res, err := serve.OneShot(serve.SolveRequest{Scenario: cfg.Scenario, Steps: cfg.Steps})
	if err != nil {
		t.Fatal(err)
	}
	if got := serve.PressureHash(res.Pressure); got != rec.Hash {
		t.Errorf("default scenario hashes to %s, BENCH_serve.json records %s", got, rec.Hash)
	}
}

// TestRunServeLoadSmall drives the whole serving experiment on the small
// 48-cell scenario: every phase completes, the memo probes are served
// without a new engine solve, bit-identity holds across cold, warm, memo
// and one-shot, and the load phase accounts for every arrival.
func TestRunServeLoadSmall(t *testing.T) {
	cfg := ServeConfig{
		Scenario:   serve.Scenario{Rings: 6, Sectors: 8, Parts: 2},
		WarmProbes: 3,
		Requests:   20,
		RatePerSec: 200,
		Server:     serve.Options{QueueDepth: 64},
	}
	res, err := RunServeLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 48 {
		t.Errorf("Cells = %d, want 48", res.Cells)
	}
	if !res.BitIdentical {
		t.Error("bit identity lost across cold/warm/memo/one-shot")
	}
	if res.MemoSeconds <= 0 || res.MemoSpeedup <= 0 {
		t.Errorf("memo phase empty: %g s, %gx", res.MemoSeconds, res.MemoSpeedup)
	}
	if res.Stats.MemoHits < uint64(cfg.WarmProbes) {
		t.Errorf("MemoHits = %d, want ≥ %d (every memo probe)", res.Stats.MemoHits, cfg.WarmProbes)
	}
	if res.Stats.SchedDecisions == 0 {
		t.Error("load phase recorded no scheduler decisions")
	}
	l := res.Load
	if l.Completed+l.Rejected429+l.Errors != cfg.Requests {
		t.Errorf("load accounting off: %d + %d + %d != %d",
			l.Completed, l.Rejected429, l.Errors, cfg.Requests)
	}
	if l.Errors != 0 {
		t.Errorf("load phase had %d errors", l.Errors)
	}
	if len(l.PerItem) != 3 {
		t.Errorf("per-item breakdown has %d entries, want 3", len(l.PerItem))
	}
	// BatchMax was left zero in the config: the report must echo the serve
	// default, not a bench-local copy of it.
	if res.BatchMax != serve.DefaultBatchMax || res.MemoCapacity != serve.DefaultMemoCapacity {
		t.Errorf("knob echo drifted from serve defaults: batch %d, memo %d", res.BatchMax, res.MemoCapacity)
	}
	// Likewise the scenario: the one the key was hashed from, defaults filled.
	if res.Scenario.Mesh != "radial" {
		t.Errorf("scenario echo is not normalised: mesh %q, want radial", res.Scenario.Mesh)
	}
	c := res.Chaos
	if c == nil {
		t.Fatal("chaos phase missing from the report")
	}
	if c.Requests != 40 {
		t.Errorf("chaos requests = %d, want the default 40", c.Requests)
	}
	if c.PanicsFired+c.StallsFired+c.BreakdownsFired == 0 {
		t.Error("chaos phase fired no faults")
	}
	if c.Completed+c.Faulted+c.Collateral != c.Requests {
		t.Errorf("chaos accounting off: %d + %d + %d != %d",
			c.Completed, c.Faulted, c.Collateral, c.Requests)
	}
	if c.AvailabilityNonFaulted < 0.99 {
		t.Errorf("chaos availability %.4f below the 0.99 gate", c.AvailabilityNonFaulted)
	}
	if !c.BitIdentical {
		t.Error("chaos-phase successes diverged from the fault-free reference")
	}
	if c.EnginePanics != uint64(c.PanicsFired) {
		t.Errorf("EnginePanics = %d, want %d (one per fired panic)", c.EnginePanics, c.PanicsFired)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"memo hit", "memo speedup", "sched", "chaos", "availability"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q:\n%s", want, sb.String())
		}
	}
}
