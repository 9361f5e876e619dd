package loadgen

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestSpecValidateRetries extends the rejection table to the retry knobs.
func TestSpecValidateRetries(t *testing.T) {
	s := validSpec()
	s.MaxRetries = -1
	if s.Validate() == nil {
		t.Error("negative max_retries accepted")
	}
	s = validSpec()
	s.RetryBackoffSeconds = -0.5
	if s.Validate() == nil {
		t.Error("negative retry_backoff_seconds accepted")
	}
	s = validSpec()
	s.MaxRetries = 3
	s.RetryBackoffSeconds = 0.2
	if err := s.Validate(); err != nil {
		t.Errorf("valid retrying spec rejected: %v", err)
	}
}

// TestPlanJitterDeterministic pins the replay contract for retrying specs:
// the jitters are part of the plan, drawn from the same seed stream, so
// equal specs retry at identical offsets — and a non-retrying spec's plan
// is byte-identical to what it was before retries existed.
func TestPlanJitterDeterministic(t *testing.T) {
	spec := validSpec()
	spec.Requests = 20
	spec.MaxRetries = 3
	a, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("equal retrying specs planned different jitters")
	}
	for i, s := range a {
		if len(s.Jitter) != spec.MaxRetries {
			t.Fatalf("shot %d has %d jitters, want %d", i, len(s.Jitter), spec.MaxRetries)
		}
		for _, j := range s.Jitter {
			if j < 0 || j >= 1 {
				t.Fatalf("shot %d jitter %g outside [0,1)", i, j)
			}
		}
	}

	// MaxRetries=0 must not consume extra rng draws: arrival offsets and
	// item picks match the retrying plan's exactly.
	spec.MaxRetries = 0
	plain, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Jitter != nil {
			t.Fatalf("non-retrying shot %d carries jitters", i)
		}
		if plain[i].At != a[i].At || plain[i].Item != a[i].Item {
			t.Fatalf("shot %d drifted without retries: %v/%d vs %v/%d",
				i, plain[i].At, plain[i].Item, a[i].At, a[i].Item)
		}
	}
}

// TestDriverRetriesHonorRetryAfter replays a flaky poster on a fake clock:
// the driver re-fires 429s, waits at least the server's Retry-After, and a
// shot that eventually succeeds counts as completed with its retries
// tallied.
func TestDriverRetriesHonorRetryAfter(t *testing.T) {
	spec := Spec{
		Requests:            1,
		RatePerSec:          100,
		Seed:                5,
		MaxRetries:          3,
		RetryBackoffSeconds: 0.1,
		Items:               []Item{{Name: "a", Body: json.RawMessage(`{}`)}},
	}
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	var mu sync.Mutex
	posts := 0
	var waits []time.Duration
	d := Driver{
		now: clock.Now,
		sleep: func(dur time.Duration) {
			mu.Lock()
			waits = append(waits, dur)
			mu.Unlock()
			clock.Advance(dur)
		},
		Post: func(Item) PostResult {
			mu.Lock()
			defer mu.Unlock()
			posts++
			if posts <= 2 {
				return PostResult{Status: http.StatusTooManyRequests, RetryAfterSeconds: 2}
			}
			return PostResult{Status: http.StatusOK}
		},
	}
	rep, err := d.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if posts != 3 {
		t.Fatalf("poster fired %d times, want 3 (two 429s, then 200)", posts)
	}
	if rep.Completed != 1 || rep.Rejected429 != 0 || rep.Retries != 2 || rep.GaveUp != 0 {
		t.Errorf("report = completed %d / 429s %d / retries %d / gave_up %d, want 1/0/2/0",
			rep.Completed, rep.Rejected429, rep.Retries, rep.GaveUp)
	}
	// The first sleep is the arrival offset; the retry waits follow and must
	// honor the 2 s Retry-After (which dominates the 0.1 s-base backoff).
	if len(waits) != 3 {
		t.Fatalf("driver slept %d times, want 3 (arrival + 2 retry waits)", len(waits))
	}
	for _, w := range waits[1:] {
		if w < 2*time.Second {
			t.Errorf("retry wait %v shorter than the 2 s Retry-After", w)
		}
	}
	// The retry waits are part of the shot's measured latency.
	if rep.MaxSeconds < 4 {
		t.Errorf("latency %g s does not include the two 2 s retry waits", rep.MaxSeconds)
	}
}

// TestDriverBackoffDeterministic pins that retry waits replay exactly: two
// runs of the same spec against the same scripted poster sleep the same
// sequence.
func TestDriverBackoffDeterministic(t *testing.T) {
	spec := Spec{
		Requests:            4,
		RatePerSec:          100,
		Seed:                11,
		MaxRetries:          2,
		RetryBackoffSeconds: 0.05,
		Items:               []Item{{Name: "a", Body: json.RawMessage(`{}`)}},
	}
	run := func() []time.Duration {
		// The clock stays frozen: arrival waits are then exactly the planned
		// offsets (a moving clock would make them depend on goroutine
		// scheduling), so every recorded wait is plan-determined.
		clock := &fakeClock{t: time.Unix(1700000000, 0)}
		var mu sync.Mutex
		var waits []time.Duration
		d := Driver{
			now: clock.Now,
			sleep: func(dur time.Duration) {
				mu.Lock()
				waits = append(waits, dur)
				mu.Unlock()
			},
			// Always retryable: every shot burns its full retry budget, so
			// every backoff wait is exercised.
			Post: func(Item) PostResult { return PostResult{Err: errors.New("refused")} },
		}
		rep, err := d.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.GaveUp != spec.Requests || rep.Errors != spec.Requests {
			t.Fatalf("gave_up %d / errors %d, want %d/%d", rep.GaveUp, rep.Errors, spec.Requests, spec.Requests)
		}
		if rep.Retries != spec.Requests*spec.MaxRetries {
			t.Fatalf("retries = %d, want %d", rep.Retries, spec.Requests*spec.MaxRetries)
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Duration(nil), waits...)
	}
	a, b := run(), run()
	// The open-loop goroutines race on the waits slice ordering, so compare
	// as multisets.
	if len(a) != len(b) {
		t.Fatalf("runs slept %d vs %d times", len(a), len(b))
	}
	count := map[time.Duration]int{}
	for _, w := range a {
		count[w]++
	}
	for _, w := range b {
		count[w]--
	}
	for w, n := range count {
		if n != 0 {
			t.Errorf("wait %v appears %+d more times in one run", w, n)
		}
	}
}
