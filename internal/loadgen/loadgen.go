// Package loadgen is the open-loop load-generation engine behind the remote
// load generator (cmd/fvload); internal/serve's lifecycle tests fire it at an
// in-process handler. One seeded plan fixes the whole experiment —
// exponential inter-arrival times and the weighted workload-item draw per
// shot — so the same spec replays the same traffic against an in-process
// handler or a remote daemon, and the two paths cannot drift in arrival or
// quantile arithmetic.
//
// Open loop means arrivals fire on their own schedule, never gated on the
// previous response: the server's queue, batcher and admission gate engage
// exactly as they would under independent clients.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Item is one workload mix entry: a named request body drawn with
// probability Weight / Σweights. A zero weight defaults to 1; negative
// weights are invalid.
type Item struct {
	Name   string          `json:"name"`
	Weight int             `json:"weight,omitempty"`
	Body   json.RawMessage `json:"body"`
}

// Spec describes one open-loop experiment: how many arrivals, at what
// sustained rate, from which seed, over which workload mix. It is the
// fvload workload-spec file format.
type Spec struct {
	Requests   int     `json:"requests"`
	RatePerSec float64 `json:"rate_per_sec"`
	Seed       int64   `json:"seed"`
	Items      []Item  `json:"items"`

	// MaxRetries re-fires a shot up to this many times after a retryable
	// outcome (429, 503, transport failure), honoring the server's
	// Retry-After when it exceeds the backoff. 0 disables retries — and
	// keeps the plan's rng stream byte-identical to pre-retry specs.
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoffSeconds is the exponential backoff base: attempt k waits
	// max(Retry-After, base·2^k·(0.5+0.5·jitter)) with the jitter pre-drawn
	// at plan time, so a replay retries at identical offsets. 0 defaults to
	// DefaultRetryBackoffSeconds.
	RetryBackoffSeconds float64 `json:"retry_backoff_seconds,omitempty"`
}

// DefaultRetryBackoffSeconds is the backoff base when a retrying spec does
// not set one.
const DefaultRetryBackoffSeconds = 0.1

// Validate rejects specs the planner cannot honor.
func (s Spec) Validate() error {
	if s.Requests < 1 {
		return fmt.Errorf("loadgen: requests must be positive, got %d", s.Requests)
	}
	if s.RatePerSec <= 0 || math.IsInf(s.RatePerSec, 0) || math.IsNaN(s.RatePerSec) {
		return fmt.Errorf("loadgen: rate_per_sec must be positive and finite, got %g", s.RatePerSec)
	}
	if s.MaxRetries < 0 {
		return fmt.Errorf("loadgen: max_retries must be non-negative, got %d", s.MaxRetries)
	}
	if s.RetryBackoffSeconds < 0 || math.IsInf(s.RetryBackoffSeconds, 0) || math.IsNaN(s.RetryBackoffSeconds) {
		return fmt.Errorf("loadgen: retry_backoff_seconds must be non-negative and finite, got %g", s.RetryBackoffSeconds)
	}
	if len(s.Items) == 0 {
		return fmt.Errorf("loadgen: at least one workload item is required")
	}
	for i, it := range s.Items {
		if it.Name == "" {
			return fmt.Errorf("loadgen: item %d has no name", i)
		}
		if it.Weight < 0 {
			return fmt.Errorf("loadgen: item %q has negative weight %d", it.Name, it.Weight)
		}
		if len(it.Body) == 0 {
			return fmt.Errorf("loadgen: item %q has no body", it.Name)
		}
	}
	return nil
}

// Shot is one planned arrival: fire Items[Item] at offset At from the start
// of the run. Index is the arrival's position in the plan. Jitter holds the
// shot's pre-drawn backoff jitters (one uniform [0,1) per allowed retry) —
// drawing them at plan time keeps retrying runs fully seed-deterministic.
type Shot struct {
	Index  int
	At     time.Duration
	Item   int
	Jitter []float64
}

// Plan expands a spec into its deterministic shot sequence. One rng stream
// (the spec's seed) draws both the exponential inter-arrival gaps and the
// weighted item picks, so equal specs yield byte-equal traffic wherever
// they run.
func Plan(spec Spec) ([]Shot, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	weights := make([]int, len(spec.Items))
	total := 0
	for i, it := range spec.Items {
		w := it.Weight
		if w == 0 {
			w = 1
		}
		weights[i] = w
		total += w
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	shots := make([]Shot, spec.Requests)
	at := 0.0
	for i := range shots {
		at += rng.ExpFloat64() / spec.RatePerSec
		pick := rng.Intn(total)
		item := 0
		for pick >= weights[item] {
			pick -= weights[item]
			item++
		}
		shots[i] = Shot{Index: i, At: time.Duration(at * float64(time.Second)), Item: item}
	}
	// Retry jitters draw after the whole arrival sequence, so turning
	// retries on (or resizing the budget) never perturbs the arrival
	// process — the same seed fires the same traffic either way.
	if spec.MaxRetries > 0 {
		for i := range shots {
			jit := make([]float64, spec.MaxRetries)
			for j := range jit {
				jit[j] = rng.Float64()
			}
			shots[i].Jitter = jit
		}
	}
	return shots, nil
}

// Quantile returns the q-quantile of a sorted sample: sorted[⌈q·n⌉−1], the
// smallest value with at least a q fraction of the sample at or below it.
// This is the corrected definition — for n=100, p99 is sorted[98], not the
// maximum. q outside (0,1] clamps; an empty sample returns 0.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// sortedCopy returns an ascending copy, leaving the input untouched.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}
