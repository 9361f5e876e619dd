package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"
)

func validSpec() Spec {
	return Spec{
		Requests:   10,
		RatePerSec: 100,
		Seed:       1,
		Items:      []Item{{Name: "a", Body: json.RawMessage(`{}`)}},
	}
}

// TestSpecValidate drives the rejection table.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		ok     bool
	}{
		{"valid", func(s *Spec) {}, true},
		{"zero requests", func(s *Spec) { s.Requests = 0 }, false},
		{"negative requests", func(s *Spec) { s.Requests = -5 }, false},
		{"zero rate", func(s *Spec) { s.RatePerSec = 0 }, false},
		{"negative rate", func(s *Spec) { s.RatePerSec = -1 }, false},
		{"no items", func(s *Spec) { s.Items = nil }, false},
		{"unnamed item", func(s *Spec) { s.Items[0].Name = "" }, false},
		{"negative weight", func(s *Spec) { s.Items[0].Weight = -1 }, false},
		{"empty body", func(s *Spec) { s.Items[0].Body = nil }, false},
		{"zero weight ok", func(s *Spec) { s.Items[0].Weight = 0 }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSpec()
			c.mutate(&s)
			if err := s.Validate(); (err == nil) != c.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

// TestPlanDeterministic pins the replay contract: equal specs yield
// identical shot sequences; a different seed diverges.
func TestPlanDeterministic(t *testing.T) {
	spec := validSpec()
	spec.Items = append(spec.Items, Item{Name: "b", Weight: 3, Body: json.RawMessage(`{"x":1}`)})
	spec.Requests = 50
	a, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("equal specs planned different traffic")
	}
	spec.Seed = 2
	c, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds planned identical traffic")
	}
}

// TestPlanShape pins the plan's structural invariants: offsets are
// positive and non-decreasing, every item is drawable, and the weighted
// draw roughly honors the weights.
func TestPlanShape(t *testing.T) {
	spec := Spec{
		Requests:   2000,
		RatePerSec: 100,
		Seed:       7,
		Items: []Item{
			{Name: "light", Weight: 1, Body: json.RawMessage(`{}`)},
			{Name: "heavy", Weight: 3, Body: json.RawMessage(`{}`)},
		},
	}
	shots, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(spec.Items))
	prev := time.Duration(0)
	for i, s := range shots {
		if s.Index != i {
			t.Fatalf("shot %d has index %d", i, s.Index)
		}
		if s.At <= prev {
			t.Fatalf("shot %d offset %v not after previous %v", i, s.At, prev)
		}
		prev = s.At
		counts[s.Item]++
	}
	frac := float64(counts[1]) / float64(len(shots))
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("weight-3 item drew %.2f of shots, want ≈ 0.75", frac)
	}
}

// TestQuantile pins the corrected definition sorted[⌈q·n⌉−1] over known
// distributions — most pointedly that p99 of 100 samples is the 99th value,
// not the maximum (the bug this replaced).
func TestQuantile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1) // 1..100
	}
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{3}, 0.99, 3},
		{"median odd", []float64{1, 2, 3, 4, 5}, 0.5, 3},
		{"median even", []float64{1, 2, 3, 4}, 0.5, 2},
		{"p99 of 100 is not the max", hundred, 0.99, 99},
		{"p100 is the max", hundred, 1.0, 100},
		{"p50 of 100", hundred, 0.50, 50},
		{"p90 of 10", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Quantile(c.sorted, c.q); got != c.want {
				t.Errorf("Quantile(%v) = %g, want %g", c.q, got, c.want)
			}
		})
	}
}

// fakeClock is a mutex-guarded hand-advanced clock shared by the driver's
// goroutines.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestDriverRun replays a plan against a scripted poster on a fake clock:
// statuses bucket into completed/rejected/errors, markers aggregate, and
// the per-item breakdown accounts for every shot.
func TestDriverRun(t *testing.T) {
	spec := Spec{
		Requests:   40,
		RatePerSec: 1000,
		Seed:       3,
		Items: []Item{
			{Name: "ok", Weight: 2, Body: json.RawMessage(`{"kind":"ok"}`)},
			{Name: "shed", Weight: 1, Body: json.RawMessage(`{"kind":"shed"}`)},
		},
	}
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	var mu sync.Mutex
	posts := 0
	d := Driver{
		now:   clock.Now,
		sleep: func(time.Duration) {},
		Post: func(it Item) PostResult {
			mu.Lock()
			posts++
			mu.Unlock()
			clock.Advance(time.Millisecond)
			if it.Name == "shed" {
				return PostResult{Status: http.StatusTooManyRequests}
			}
			return PostResult{Status: http.StatusOK, MemoHit: true}
		},
	}
	rep, err := d.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if posts != spec.Requests {
		t.Errorf("poster fired %d times, want %d", posts, spec.Requests)
	}
	if rep.Completed+rep.Rejected429 != spec.Requests || rep.Errors != 0 {
		t.Errorf("outcome buckets off: %d completed + %d rejected + %d errors, want %d total",
			rep.Completed, rep.Rejected429, rep.Errors, spec.Requests)
	}
	if rep.MemoHits != rep.Completed {
		t.Errorf("MemoHits = %d, want %d (every 200 carried the marker)", rep.MemoHits, rep.Completed)
	}
	if rep.Completed == 0 || rep.P50Seconds <= 0 || rep.MaxSeconds < rep.P99Seconds {
		t.Errorf("latency stats off: %+v", rep)
	}
	sent := 0
	for _, it := range rep.PerItem {
		sent += it.Sent
		switch it.Name {
		case "ok":
			if it.Completed != it.Sent || it.MemoHits != it.Sent {
				t.Errorf("item ok: %d/%d completed, %d memo hits", it.Completed, it.Sent, it.MemoHits)
			}
		case "shed":
			if it.Completed != 0 {
				t.Errorf("item shed completed %d requests", it.Completed)
			}
		}
	}
	if sent != spec.Requests {
		t.Errorf("per-item sent sums to %d, want %d", sent, spec.Requests)
	}
}

// TestDriverRunErrors pins the error bucket: transport failures and
// non-2xx/429 statuses count as errors, not completions.
func TestDriverRunErrors(t *testing.T) {
	spec := validSpec()
	spec.Requests = 6
	calls := 0
	var mu sync.Mutex
	d := Driver{
		sleep: func(time.Duration) {},
		Post: func(Item) PostResult {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls%2 == 0 {
				return PostResult{Err: errors.New("connection refused")}
			}
			return PostResult{Status: http.StatusInternalServerError}
		},
	}
	rep, err := d.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != spec.Requests || rep.Completed != 0 {
		t.Errorf("errors = %d, completed = %d, want %d / 0", rep.Errors, rep.Completed, spec.Requests)
	}
	if rep.DurationSeconds != 0 || rep.SustainedReqPerSec != 0 {
		t.Errorf("no completions but duration %g s / %g req/s", rep.DurationSeconds, rep.SustainedReqPerSec)
	}
}

// TestDriverRejectsBadSpec pins that Run validates before firing anything.
func TestDriverRejectsBadSpec(t *testing.T) {
	d := Driver{Post: func(Item) PostResult { return PostResult{Status: http.StatusOK} }}
	if _, err := d.Run(Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	var fired bool
	d.Post = func(Item) PostResult { fired = true; return PostResult{} }
	_, _ = d.Run(Spec{})
	if fired {
		t.Error("poster fired for an invalid spec")
	}
}

// TestDriverNoPoster pins the misconfiguration error.
func TestDriverNoPoster(t *testing.T) {
	var d Driver
	if _, err := d.Run(validSpec()); err == nil {
		t.Error("driver without a poster accepted the run")
	}
}

// TestSpecRoundTrip pins the workload-spec file format: a spec marshals and
// unmarshals losslessly, bodies staying raw.
func TestSpecRoundTrip(t *testing.T) {
	in := Spec{
		Requests:   5,
		RatePerSec: 20,
		Seed:       9,
		Items: []Item{
			{Name: "steps1", Weight: 2, Body: json.RawMessage(`{"scenario":{"parts":8},"steps":1}`)},
			{Name: "steps3", Weight: 1, Body: json.RawMessage(`{"scenario":{"parts":8},"steps":3}`)},
		},
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out.Requests != in.Requests || out.RatePerSec != in.RatePerSec || out.Seed != in.Seed ||
		len(out.Items) != len(in.Items) {
		t.Fatalf("round trip changed the spec: %+v", out)
	}
	for i := range in.Items {
		if out.Items[i].Name != in.Items[i].Name || out.Items[i].Weight != in.Items[i].Weight ||
			string(out.Items[i].Body) != string(in.Items[i].Body) {
			t.Errorf("item %d changed: %+v", i, out.Items[i])
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(fmt.Errorf("round-tripped spec invalid: %w", err))
	}
}
