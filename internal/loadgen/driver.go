package loadgen

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// PostResult is one shot's outcome as the poster saw it. Seconds is filled
// by the driver (arrival-to-response on the driver's clock); the poster
// reports transport status and the response markers the report aggregates.
type PostResult struct {
	// Status is the HTTP status (0 with Err set on transport failure).
	Status int
	// MemoHit echoes the server's response marker.
	MemoHit bool
	// RetryAfterSeconds is the response's parsed Retry-After header (0 when
	// absent) — the server's own wait advice, which the retry loop honors
	// over its backoff when larger.
	RetryAfterSeconds float64
	// Err is a transport-level failure (connection refused, timeout).
	Err error

	// Seconds is the shot's latency, measured by the driver — arrival to
	// final response, retries and their waits included.
	Seconds float64

	// Retries counts re-fires the driver spent on this shot; GaveUp marks a
	// shot whose retry budget ran out with the outcome still retryable.
	Retries int
	GaveUp  bool
}

// retryable reports whether an outcome is worth re-firing: the server said
// "later" (admission 429, drain 503) or transport failed entirely.
// Hard failures (4xx client bugs, 422, 500, 504) are final.
func (r PostResult) retryable() bool {
	return r.Err != nil ||
		r.Status == http.StatusTooManyRequests ||
		r.Status == http.StatusServiceUnavailable
}

// Poster fires one workload item at the target and reports the outcome —
// an HTTP client for cmd/fvload, an httptest round trip for the in-process
// benchmark, a stub for tests.
type Poster func(item Item) PostResult

// Driver runs a spec's shot plan open-loop on the real clock. now and sleep,
// when set, replace it: the driver's tests (TestDriverRun and the retry
// tests) replay a plan on a fake clock through them.
type Driver struct {
	Post  Poster
	now   func() time.Time
	sleep func(d time.Duration)
}

// ItemReport is one workload item's slice of the outcome.
type ItemReport struct {
	Name       string  `json:"name"`
	Sent       int     `json:"sent"`
	Completed  int     `json:"completed"`
	MemoHits   int     `json:"memo_hits"`
	P50Seconds float64 `json:"p50_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
}

// Report is an open-loop run's outcome — the fvload report body.
type Report struct {
	// Requests, RatePerSec and Seed echo the arrival process.
	Requests   int     `json:"requests"`
	RatePerSec float64 `json:"rate_per_sec"`
	Seed       int64   `json:"seed"`
	// Completed counts 200s; Rejected429 the admission rejections (token
	// bucket or full queue); Errors transport failures and non-2xx/429
	// statuses; MemoHits completions served from the result memo — a
	// completed identical request's, or one in flight that they joined.
	Completed   int `json:"completed"`
	Rejected429 int `json:"rejected_429"`
	Errors      int `json:"errors"`
	MemoHits    int `json:"memo_hits"`
	// Retries is the total re-fires spent across all shots; GaveUp counts
	// shots whose retry budget ran out with the outcome still retryable
	// (those also land in their final status bucket).
	Retries int `json:"retries"`
	GaveUp  int `json:"gave_up"`
	// SustainedReqPerSec is completions over the span from first arrival to
	// last completion — the throughput the target actually sustained.
	SustainedReqPerSec float64 `json:"sustained_req_per_sec"`
	// Latency quantiles over the completed requests (arrival-to-response),
	// Quantile semantics: sorted[⌈q·n⌉−1].
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	// DurationSeconds spans first arrival to last completion.
	DurationSeconds float64 `json:"duration_seconds"`
	// PerItem breaks the outcome down by workload item.
	PerItem []ItemReport `json:"per_item,omitempty"`
}

// latestTime tracks the maximum completion timestamp across racing shots.
type latestTime struct {
	mu sync.Mutex
	t  time.Time
}

func (l *latestTime) store(t time.Time) {
	l.mu.Lock()
	if t.After(l.t) {
		l.t = t
	}
	l.mu.Unlock()
}

func (l *latestTime) load() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t
}

// Run plans the spec and fires it open-loop: every shot sleeps until its
// planned offset and posts regardless of earlier completions, so the target
// sees the spec's arrival process, not the driver's round-trip times.
func (d Driver) Run(spec Spec) (*Report, error) {
	shots, err := Plan(spec)
	if err != nil {
		return nil, err
	}
	if d.Post == nil {
		return nil, fmt.Errorf("loadgen: driver has no poster")
	}
	now := d.now
	if now == nil {
		now = time.Now
	}
	sleep := d.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	backoff := spec.RetryBackoffSeconds
	if backoff <= 0 {
		backoff = DefaultRetryBackoffSeconds
	}

	results := make([]PostResult, len(shots))
	items := make([]int, len(shots))
	start := now()
	var last latestTime
	var wg sync.WaitGroup
	for _, shot := range shots {
		items[shot.Index] = shot.Item
		wg.Add(1)
		go func(shot Shot) {
			defer wg.Done()
			if wait := shot.At - now().Sub(start); wait > 0 {
				sleep(wait)
			}
			fired := now()
			r := d.Post(spec.Items[shot.Item])
			// Retry loop: seeded exponential backoff with the shot's
			// pre-drawn jitter, never waiting less than the server's own
			// Retry-After advice.
			for attempt := 0; attempt < spec.MaxRetries && r.retryable(); attempt++ {
				wait := backoff * math.Pow(2, float64(attempt)) * (0.5 + 0.5*shot.Jitter[attempt])
				if r.RetryAfterSeconds > wait {
					wait = r.RetryAfterSeconds
				}
				sleep(time.Duration(wait * float64(time.Second)))
				retries := r.Retries + 1
				r = d.Post(spec.Items[shot.Item])
				r.Retries = retries
			}
			r.GaveUp = spec.MaxRetries > 0 && r.retryable()
			done := now()
			r.Seconds = done.Sub(fired).Seconds()
			results[shot.Index] = r
			if r.Err == nil && r.Status == http.StatusOK {
				last.store(done)
			}
		}(shot)
	}
	wg.Wait()

	rep := &Report{
		Requests:   spec.Requests,
		RatePerSec: spec.RatePerSec,
		Seed:       spec.Seed,
	}
	perItem := make([]ItemReport, len(spec.Items))
	perLatency := make([][]float64, len(spec.Items))
	for i, it := range spec.Items {
		perItem[i].Name = it.Name
	}
	var latencies []float64
	for i, r := range results {
		it := items[i]
		perItem[it].Sent++
		rep.Retries += r.Retries
		if r.GaveUp {
			rep.GaveUp++
		}
		switch {
		case r.Err != nil:
			rep.Errors++
		case r.Status == http.StatusOK:
			rep.Completed++
			perItem[it].Completed++
			latencies = append(latencies, r.Seconds)
			perLatency[it] = append(perLatency[it], r.Seconds)
			if r.Seconds > rep.MaxSeconds {
				rep.MaxSeconds = r.Seconds
			}
			if r.Seconds > perItem[it].MaxSeconds {
				perItem[it].MaxSeconds = r.Seconds
			}
			if r.MemoHit {
				rep.MemoHits++
				perItem[it].MemoHits++
			}
		case r.Status == http.StatusTooManyRequests:
			rep.Rejected429++
		default:
			rep.Errors++
		}
	}
	sorted := sortedCopy(latencies)
	rep.P50Seconds = Quantile(sorted, 0.50)
	rep.P99Seconds = Quantile(sorted, 0.99)
	for i := range perItem {
		perItem[i].P50Seconds = Quantile(sortedCopy(perLatency[i]), 0.50)
	}
	rep.PerItem = perItem
	if t := last.load(); !t.IsZero() {
		rep.DurationSeconds = t.Sub(start).Seconds()
	}
	if rep.DurationSeconds > 0 {
		rep.SustainedReqPerSec = float64(rep.Completed) / rep.DurationSeconds
	}
	return rep, nil
}
