// Package serve is the resident-engine serving layer: a long-running
// HTTP/JSON front end over the partitioned unstructured implicit solver that
// keeps compiled engines (umesh.TransientSolver — PartEngine, PartOperator
// and their phase programs) resident behind a scenario cache, so a repeat
// request skips plan compilation entirely and pays only queue + solve +
// render — and keeps completed results behind a bounded memo, so an
// identical repeat request skips the engines too.
//
// Request path:
//
//	POST /v1/solve → decode + validate (400) → admission (draining 503,
//	    token bucket 429, bounded queue 429)
//	  → result memo (hit: completed response, no engine; concurrent
//	    identical misses coalesce on one solve — single flight)
//	  → pricing (online cost estimate; brownout sheds the costly with 503)
//	  → scenario cache (hit: resident engines; miss: compile once)
//	  → the scenario's backlog, from which an idle resident engine pulls
//	    its next batch (shortest-job-first over the cost estimate with an
//	    aging credit; identical payloads batched, one solve per batch; the
//	    lowest idle engine id serves) → render (JSON)
//
// Structure: a synchronous, lock-protected core and two thin concurrent
// edges. The core — admission and pricing (Server.admit/release,
// price/conclude), each scenario's backlog (entry.enqueue/take/complete) and
// Server.finish, the one place a terminal counter is written — neither
// blocks nor starts a goroutine, so it can be driven step by step on the
// injected clock. The edges are the HTTP handler (handleSolve: stages that
// return the next value or a terminal reply, one wait on the job's result)
// and one goroutine per resident engine (runEngine: take, solve, complete).
//
// Determinism: a served solve runs the exact one-shot code path
// (RunTransientPartitioned is one compile-and-solve cycle of the same
// TransientSolver the cache keeps resident), so responses are bit-identical
// to the equivalent CLI invocation — including after engine reuse across
// requests and when served from the result memo, which the test suite
// asserts.
//
// Clocks: every duration the layer reports (Timings, the *SecondsTotal
// stats) derives from the injected Options.Now — never from time.Since —
// so tests and replays can drive the layer on a fake clock and read sane
// numbers.
//
// Shutdown: Drain stops admission (503), waits for every admitted request
// to complete, then retires the cache and its engines — the SIGTERM path of
// cmd/fvserve.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/solver"
	"repro/internal/umesh"
)

// Defaults for the zero-valued Options fields. Exported so the other ends
// of the system (bench configs, CLI flag tables) echo the serving layer's
// effective configuration instead of restating the numbers and drifting.
const (
	DefaultCacheCapacity      = 4
	DefaultEnginesPerScenario = 1
	DefaultQueueDepth         = 64
	DefaultBatchMax           = 8
	DefaultMaxCells           = 1 << 20
	DefaultMemoCapacity       = 64
)

// Options configures a Server. The zero value serves with the documented
// defaults.
type Options struct {
	// CacheCapacity bounds the resident scenario count; the least recently
	// used scenario is evicted (engines released once idle) beyond it.
	// Default DefaultCacheCapacity.
	CacheCapacity int
	// EnginesPerScenario sizes each scenario's resident engine pool — the
	// idle member with the lowest id takes the next batch. Default
	// DefaultEnginesPerScenario.
	EnginesPerScenario int
	// QueueDepth bounds the admitted-but-unfinished job count; request
	// number QueueDepth+1 is rejected with 429. Default DefaultQueueDepth.
	QueueDepth int
	// RatePerSec is the token-bucket refill rate of the admission gate
	// (requests per second, sustained); 0 disables rate admission.
	RatePerSec float64
	// Burst is the token-bucket capacity (instantaneous excursion above the
	// sustained rate). Default: QueueDepth when rate admission is on.
	Burst int
	// BatchMax bounds how many queued same-payload requests one engine
	// takes as a batch. Default DefaultBatchMax.
	BatchMax int
	// MaxCells rejects scenarios whose mesh would exceed this many cells
	// before compiling anything. Default DefaultMaxCells; negative disables.
	MaxCells int
	// MemoCapacity bounds the result memo — completed responses keyed by
	// (scenario, payload), served without touching an engine. Default
	// DefaultMemoCapacity; negative disables memoization.
	MemoCapacity int
	// DefaultDeadline bounds every solve that does not carry its own
	// deadline_ms: past it the Krylov loop cancels at the next iteration
	// boundary and the request gets 504 with partial-progress diagnostics.
	// 0 leaves solves unbounded unless the request asks.
	DefaultDeadline time.Duration
	// BrownoutHighSeconds enables overload brownout: when the summed cost
	// estimates of admitted engine-bound requests exceed it, admission
	// enters degraded mode and sheds the costliest requests with 503 (those
	// estimated at a quarter of it or more) until the estimate falls below
	// half of it. 0 disables brownout.
	BrownoutHighSeconds float64
	// SolveHook, when non-nil, runs immediately before every engine step
	// solve with that solve's cancel hook. It exists for deterministic
	// fault injection (internal/faultinject) — production servers leave it
	// nil.
	SolveHook func(cancel func() bool) error
	// Now overrides the clock (tests, replays). Every duration the layer
	// reports derives from it. Default time.Now.
	Now func() time.Time
}

// WithDefaults returns the options with every zero field replaced by its
// documented default — exactly the configuration New serves under. Exported
// so benchmarks and CLIs report the effective knobs instead of restating
// the defaults.
func (o Options) WithDefaults() Options {
	if o.CacheCapacity == 0 {
		o.CacheCapacity = DefaultCacheCapacity
	}
	if o.EnginesPerScenario == 0 {
		o.EnginesPerScenario = DefaultEnginesPerScenario
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.Burst == 0 {
		o.Burst = o.QueueDepth
	}
	if o.BatchMax == 0 {
		o.BatchMax = DefaultBatchMax
	}
	if o.MaxCells == 0 {
		o.MaxCells = DefaultMaxCells
	}
	if o.MaxCells < 0 {
		o.MaxCells = 0
	}
	if o.MemoCapacity == 0 {
		o.MemoCapacity = DefaultMemoCapacity
	}
	if o.MemoCapacity < 0 {
		o.MemoCapacity = 0
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// WellSpec is one constant-rate well of a request (positive injects).
type WellSpec struct {
	Cell int     `json:"cell"`
	Rate float64 `json:"rate"`
}

// SolveRequest is the POST /v1/solve body: which compiled scenario to run
// on, and the per-request inputs the resident engine is re-aimed at.
type SolveRequest struct {
	Scenario Scenario `json:"scenario"`
	// Wells drive the flow; empty selects the scenario's default pair
	// (inject at the well cell, produce at the last cell, ±2 kg/s).
	Wells []WellSpec `json:"wells,omitempty"`
	// Steps is the backward-Euler step count (default 1).
	Steps int `json:"steps,omitempty"`
	// ReturnPressure includes the full final pressure field in the response
	// (the SHA-256 of its raw bits is always included).
	ReturnPressure bool `json:"return_pressure,omitempty"`
	// NoMemo bypasses result memoization: the solve always runs on an
	// engine and its result is not stored. Benchmarks use it to measure the
	// engine path behind a populated memo.
	NoMemo bool `json:"no_memo,omitempty"`
	// DeadlineMillis bounds this request's solve: past the deadline the
	// Krylov loop cancels at the next iteration boundary and the request
	// gets 504 with the iterations it completed. 0 falls back to the
	// server's default deadline. The deadline does not change the payload
	// identity — batch-mates sharing one solve run it to the loosest member
	// deadline, and memo hits are served regardless.
	DeadlineMillis int `json:"deadline_ms,omitempty"`
}

// effectiveSteps is the step count the engine will run (0 defaults to 1).
func (r SolveRequest) effectiveSteps() int {
	if r.Steps == 0 {
		return 1
	}
	return r.Steps
}

// payloadKey identifies the solve-relevant request payload — requests with
// equal keys on the same scenario can share one solve (and one memo slot).
func (r SolveRequest) payloadKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "steps=%d", r.effectiveSteps())
	for _, w := range r.Wells {
		fmt.Fprintf(&b, "|%d:%g", w.Cell, w.Rate)
	}
	return b.String()
}

// transientOptions maps the per-request inputs onto the compiled template
// (zero fields defer to it).
func (r SolveRequest) transientOptions() umesh.TransientOptions {
	opts := umesh.TransientOptions{Steps: r.effectiveSteps()}
	for _, w := range r.Wells {
		opts.Wells = append(opts.Wells, umesh.Well{Cell: w.Cell, Rate: w.Rate})
	}
	return opts
}

// StepReport is one step's summary in a response.
type StepReport struct {
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	MaxDeltaP  float64 `json:"max_delta_p"`
	MassError  float64 `json:"mass_error"`
}

// Timings is the per-request wall-clock breakdown, derived from the
// injected clock.
type Timings struct {
	// QueueSeconds spans enqueue to solved (queue wait plus the batch's
	// solve); SolveSeconds is the engine solve alone; CompileSeconds is the
	// scenario compilation this request paid (0 on a cache hit);
	// RenderSeconds is response marshalling. All zero on a memo hit — no
	// engine was involved.
	QueueSeconds   float64 `json:"queue_seconds"`
	CompileSeconds float64 `json:"compile_seconds"`
	SolveSeconds   float64 `json:"solve_seconds"`
	RenderSeconds  float64 `json:"render_seconds"`
	TotalSeconds   float64 `json:"total_seconds"`
}

// SolveResponse is the POST /v1/solve response body.
type SolveResponse struct {
	ScenarioKey string `json:"scenario_key"`
	Cells       int    `json:"cells"`
	// CacheHit reports whether the scenario's engines were already resident;
	// Batched whether this request shared a batch-mate's solve; Engine which
	// resident engine served it (-1 on a memo hit — none did); BatchSize the
	// batch it rode in.
	CacheHit  bool `json:"cache_hit"`
	Batched   bool `json:"batched"`
	Engine    int  `json:"engine"`
	BatchSize int  `json:"batch_size"`
	// MemoHit reports the response was served from the result memo;
	// MemoSolveSeconds is the memoized solve's original cost — the timing
	// provenance of a response no engine touched.
	MemoHit          bool    `json:"memo_hit,omitempty"`
	MemoSolveSeconds float64 `json:"memo_solve_seconds,omitempty"`

	Steps      []StepReport `json:"steps"`
	Iterations int          `json:"iterations"`
	// PressureSHA256 hashes the final field's raw float64 bits — the
	// bit-identity probe; Pressure is included when requested.
	PressureSHA256 string    `json:"pressure_sha256"`
	Pressure       []float64 `json:"pressure,omitempty"`

	Timings Timings `json:"timings"`
}

// errorResponse is every non-200 body. Failed solves (504 deadline, 422
// breakdown / not converged) carry partial-progress diagnostics: how many
// steps finished, how far the failing step's Krylov iteration got, and its
// residual history.
type errorResponse struct {
	Error               string    `json:"error"`
	StepsCompleted      int       `json:"steps_completed,omitempty"`
	IterationsCompleted int       `json:"iterations_completed,omitempty"`
	ResidualHistory     []float64 `json:"residual_history,omitempty"`
}

// tokenBucket is the admission gate: capacity burst, refill rate tokens/sec.
// Not safe for concurrent use — the server calls it under its core lock.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	b := &tokenBucket{rate: rate, burst: float64(burst), now: now}
	b.tokens = b.burst
	b.last = now()
	return b
}

// allow takes one token if available. A zero rate admits everything. On
// rejection, retryAfter is the bucket's actual time-to-next-token in
// seconds — what the 429's Retry-After header should carry instead of a
// hardcoded guess.
func (b *tokenBucket) allow() (ok bool, retryAfter float64) {
	if b.rate <= 0 {
		return true, 0
	}
	t := b.now()
	b.tokens += t.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = t
	if b.tokens < 1 {
		return false, (1 - b.tokens) / b.rate
	}
	b.tokens--
	return true, 0
}

// Server is the resident-engine serving layer. Create one with New, mount
// Handler on an http.Server, and Drain it on shutdown.
type Server struct {
	opts  Options
	cache *cache
	memo  *memo
	stats Stats

	// mu guards the admission state (admit/release, price/conclude).
	mu     sync.Mutex
	bucket *tokenBucket
	queued int // admitted, not yet released
	// queuedCost is the estimated queue wait: the summed cost estimates of
	// the priced requests still in flight — whole nanoseconds, so conclude
	// takes back exactly what price charged and an idle server reads exactly
	// zero. It drives the brownout and the queue-full Retry-After.
	queuedCost time.Duration
	brownout   brownout

	// draining is stored under mu (admit orders against Drain's wait) and
	// read lock-free by the health check and the resubmit path.
	draining    atomic.Bool
	forceCancel atomic.Bool
	inflight    sync.WaitGroup

	mux *http.ServeMux
}

// New builds a Server.
func New(opts Options) *Server {
	opts = opts.WithDefaults()
	s := &Server{opts: opts}
	s.bucket = newTokenBucket(opts.RatePerSec, opts.Burst, opts.Now)
	s.memo = newMemo(opts.MemoCapacity)
	s.brownout = brownout{high: seconds(opts.BrownoutHighSeconds), stats: &s.stats}
	s.cache = newCache(opts, &s.stats, &s.forceCancel)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the serving counters.
func (s *Server) Stats() StatsSnapshot {
	snap := s.stats.snapshot()
	snap.ResidentScenarios = s.cache.size()
	snap.MemoEntries = s.memo.size()
	s.mu.Lock()
	snap.Degraded = s.brownout.degraded
	snap.QueuedCostSeconds = s.queuedCost.Seconds()
	s.mu.Unlock()
	return snap
}

// Drain gracefully shuts the serving layer down: new requests are rejected
// with 503, every admitted request runs to completion, then the scenario
// cache retires and every resident engine is released. Safe to call once.
func (s *Server) Drain() { s.DrainWithin(0) }

// DrainWithin is Drain with a bound: if the in-flight requests have not
// completed after timeout, every remaining solve is force-cancelled (the
// Krylov loops stop at their next iteration boundary, fault-injected stalls
// unblock through the same hook) and the drain finishes once they unwind —
// a wedged solve cannot hang shutdown. timeout <= 0 waits forever. The
// bound is real wall-clock, independent of the injected stats clock: it
// guards the process's exit, not a measurement.
func (s *Server) DrainWithin(timeout time.Duration) {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() { s.forceCancel.Store(true) })
		defer t.Stop()
	}
	s.inflight.Wait()
	s.cache.close()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// handleHealth reports ok, degraded (still 200, so load balancers can steer
// without killing an instance that serves cheap work) or draining (503).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status, code := "ok", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case s.Stats().Degraded:
		status = "degraded"
	}
	writeJSON(w, code, map[string]string{"status": status})
}

// outcome is how a request ended: the one terminal counter finish bumps.
type outcome int

const (
	completed outcome = iota
	failed
	rejectedInvalid
	rejectedRate
	rejectedQueue
	rejectedDraining
	rejectedDegraded
)

// finish is the single accounting point: every request that incremented
// Requests passes through here exactly once, so Requests == Completed +
// Failed + ΣRejected* whenever no request is in flight.
func (s *Server) finish(o outcome) {
	[...]*atomic.Uint64{
		completed:        &s.stats.Completed,
		failed:           &s.stats.Failed,
		rejectedInvalid:  &s.stats.RejectedInvalid,
		rejectedRate:     &s.stats.RejectedRate,
		rejectedQueue:    &s.stats.RejectedQueue,
		rejectedDraining: &s.stats.RejectedDraining,
		rejectedDegraded: &s.stats.RejectedDegraded,
	}[o].Add(1)
}

// reply is a request's terminal state: the outcome finish counts and the
// response the handler writes.
type reply struct {
	outcome    outcome
	code       int
	retryAfter int // Retry-After header, whole seconds; 0 = none
	body       []byte
}

// errorReply builds a non-200 reply. A body that cannot be marshalled (a
// non-finite residual) ships empty; the status stands.
func errorReply(o outcome, code int, resp errorResponse) *reply {
	body, _ := json.Marshal(resp)
	return &reply{outcome: o, code: code, body: body}
}

func reject(o outcome, code int, format string, args ...any) *reply {
	return errorReply(o, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// after sets Retry-After from a computed wait, clamped to ≥1 s (the header
// is integer seconds; zero would invite an immediate hammer).
func (r *reply) after(wait float64) *reply {
	r.retryAfter = max(1, int(math.Ceil(wait)))
	return r
}

// maxCost bounds one cost estimate, so that a full queue of absurd step
// counts cannot overflow the queued-cost sum.
const maxCost = 24 * time.Hour

// seconds converts estimated seconds into the core's integer currency.
func seconds(sec float64) time.Duration {
	return time.Duration(math.Min(sec, maxCost.Seconds()) * float64(time.Second))
}

// handleSolve takes one request from its body to its reply. Each stage
// returns either the next stage's input or the terminal reply; the outcome
// is counted once, here, before the in-flight slot is released — so a
// drained server's counters are final.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	f, rep := s.begin(r.Body, s.opts.Now())
	if rep == nil {
		defer s.release()
		rep = s.serve(f)
	}
	s.finish(rep.outcome)
	if rep.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(rep.retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(rep.code)
	_, _ = w.Write(rep.body)
}

// begin counts an arriving request and takes it through decode and
// admission. The flight it starts carries the request's memo identity and
// its deadline (its own deadline_ms, else the server default, else none),
// measured from handler entry so decode and validation count against it.
func (s *Server) begin(body io.Reader, start time.Time) (*flight, *reply) {
	s.stats.Requests.Add(1)
	f := &flight{start: start}
	if err := decodeRequest(body, s.opts.MaxCells, &f.req); err != nil {
		return nil, reject(rejectedInvalid, http.StatusBadRequest, "%v", err)
	}
	if rep := s.admit(); rep != nil {
		return nil, rep
	}
	f.mkey = memoKey{scenario: f.req.Scenario.Key(), payload: f.req.payloadKey()}
	if f.req.DeadlineMillis > 0 {
		f.deadline = start.Add(time.Duration(f.req.DeadlineMillis) * time.Millisecond)
	} else if s.opts.DefaultDeadline > 0 {
		f.deadline = start.Add(s.opts.DefaultDeadline)
	}
	return f, nil
}

// decodeRequest is the decode stage: parse the body and reject what no
// compiled scenario could ever serve — before admission, so a client error
// never takes a queue slot, a memo slot or an engine.
func decodeRequest(body io.Reader, maxCells int, req *SolveRequest) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return req.validate(maxCells)
}

func (r SolveRequest) validate(maxCells int) error {
	if err := r.Scenario.Validate(maxCells); err != nil {
		return err
	}
	if r.Steps < 0 {
		return fmt.Errorf("serve: steps must be non-negative, got %d", r.Steps)
	}
	if r.DeadlineMillis < 0 {
		return fmt.Errorf("serve: deadline_ms must be non-negative, got %d", r.DeadlineMillis)
	}
	// Negative well cells can never be valid; the upper bound is checked
	// against the compiled mesh's real cell count after the cache resolves
	// (cellEstimate is only the pre-compile MaxCells bound).
	injected := 0.0
	for _, well := range r.Wells {
		if well.Cell < 0 {
			return fmt.Errorf("serve: well cell %d is negative", well.Cell)
		}
		injected += math.Abs(well.Rate)
	}
	if len(r.Wells) > 0 && injected == 0 {
		return fmt.Errorf("serve: all well rates are zero — nothing drives the flow")
	}
	return nil
}

// admit is the admission stage: drain flag, token bucket, queue depth. An
// admitted request holds a queue slot and Drain's wait until release; both
// are taken under the lock that reads the drain flag, so Drain cannot miss a
// request it did not reject.
func (s *Server) admit() *reply {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return reject(rejectedDraining, http.StatusServiceUnavailable, "serve: draining")
	}
	if ok, wait := s.bucket.allow(); !ok {
		// Retry-After is the bucket's actual time to the next token.
		return reject(rejectedRate, http.StatusTooManyRequests, "serve: admission rate exceeded").after(wait)
	}
	if s.queued >= s.opts.QueueDepth {
		// Retry-After is the estimated drain time of what is queued ahead.
		return reject(rejectedQueue, http.StatusTooManyRequests,
			"serve: queue full (%d jobs)", s.opts.QueueDepth).after(s.queuedCost.Seconds())
	}
	s.queued++
	s.inflight.Add(1)
	s.stats.Admitted.Add(1)
	return nil
}

// release returns an admitted request's queue slot and Drain's wait.
func (s *Server) release() {
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
	s.inflight.Done()
}

// flight is one admitted request's state between stages.
type flight struct {
	req      SolveRequest
	start    time.Time
	deadline time.Time // zero = none
	mkey     memoKey
	lead     *memoEntry    // set on a memo leader: owed a publish or abandon
	cost     time.Duration // charged to the queued cost until conclude
	hit      bool          // its engines were already resident
	retried  bool          // already resubmitted after a pool loss
	timings  Timings
}

// serve takes an admitted request to its reply; with run it is the blocking
// glue between the stages: wait for a memo leader, a compile, the result.
func (s *Server) serve(f *flight) *reply {
	for s.memo != nil && !f.req.NoMemo && f.lead == nil {
		ent, leader := s.memo.acquire(f.mkey)
		if leader {
			f.lead = ent
			break
		}
		<-ent.ready
		if rep := s.memoHit(f, ent); rep != nil {
			return rep
		}
		// The leader abandoned (failed or was rejected downstream); retry —
		// this round may make us the leader.
	}
	rep := s.price(f)
	var jr jobResult
	if rep == nil {
		jr, rep = s.run(f)
	}
	return s.conclude(f, jr, rep)
}

// run waits on the engines: resolve the scenario (compiling on a cache
// miss), submit the job, wait for its result — twice if the pool was lost.
func (s *Server) run(f *flight) (jobResult, *reply) {
	for {
		e, hit, err := s.cache.acquire(f.req.Scenario)
		if err != nil {
			return jobResult{}, reject(failed, http.StatusInternalServerError, "%v", err)
		}
		j, rep := s.submit(f, e, hit)
		if rep != nil {
			e.release()
			return jobResult{}, rep
		}
		jr := <-j.done
		e.release()
		if !s.resubmit(f, j, jr) {
			return jr, nil
		}
	}
}

// memoHit is the memo stage once an entry has settled: a completed
// identical request — or the leader's, for concurrent identical misses
// (single flight) — is served from it, no engine involved. nil means the
// leader abandoned: look again.
func (s *Server) memoHit(f *flight, ent *memoEntry) *reply {
	if ent.err != nil {
		return nil
	}
	s.stats.MemoHits.Add(1)
	resp := newResponse(f.req, f.mkey.scenario, ent.res, ent.hash)
	resp.Engine, resp.MemoHit, resp.MemoSolveSeconds = -1, true, ent.solveSeconds
	return s.render(f.start, resp)
}

// price is the brownout stage: past the memo (hits are still served while
// degraded), an engine-bound request is priced by its scenario's cost model
// and shed if costly in degraded mode; else queued cost grows by its price.
func (s *Server) price(f *flight) *reply {
	// The estimate takes the cache's lock: stay outside the core's.
	cost := seconds(s.cache.costOf(f.mkey.scenario, f.req.Scenario).estimate(f.req.effectiveSteps()))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.brownout.sheds(cost) {
		return reject(rejectedDegraded, http.StatusServiceUnavailable,
			"serve: degraded (overload brownout), estimated cost %.3gs over the shed threshold",
			cost.Seconds()).after(s.queuedCost.Seconds())
	}
	f.cost = cost
	s.queuedCost += cost
	s.brownout.observe(s.queuedCost)
	return nil
}

// submit queues a priced request's job on a resolved scenario's backlog.
func (s *Server) submit(f *flight, e *entry, hit bool) (*job, *reply) {
	if f.hit = hit; !hit {
		f.timings.CompileSeconds = e.compileSeconds
		s.stats.CompileSecondsTotal.add(e.compileSeconds)
	}
	// Validate well cells against the compiled mesh, not the estimate — the
	// estimate is exact for the radial family today, but the compiled count
	// is the one the engine will index with.
	for _, well := range f.req.Wells {
		if well.Cell >= e.cells {
			return nil, reject(rejectedInvalid, http.StatusBadRequest,
				"serve: well cell %d outside the compiled %d-cell mesh", well.Cell, e.cells)
		}
	}
	j := &job{
		req:        f.req,
		payloadKey: f.mkey.payload,
		enqueued:   s.opts.Now(),
		deadline:   f.deadline,
		done:       make(chan jobResult, 1),
	}
	e.enqueue(j)
	return j, nil
}

// resubmit books a job's wait and reports whether to queue it again: a job
// queued behind an engine panic lost its pool, but the heal is already
// recompiling it — one retry on the fresh pool beats a collateral error.
func (s *Server) resubmit(f *flight, j *job, jr jobResult) bool {
	f.timings.QueueSeconds = s.opts.Now().Sub(j.enqueued).Seconds()
	s.stats.QueueSecondsTotal.add(f.timings.QueueSeconds)
	if !errors.Is(jr.err, errPoolUnhealthy) || f.retried || s.draining.Load() {
		return false
	}
	f.retried = true
	return true
}

// conclude ends a request's engine path, however it went — shed by the
// brownout, refused by the compiled mesh, failed, or solved: the queued
// cost is refunded, a memo leader's debt settled, the answer shaped.
func (s *Server) conclude(f *flight, jr jobResult, rep *reply) *reply {
	s.mu.Lock()
	s.queuedCost -= f.cost
	s.brownout.observe(s.queuedCost)
	s.mu.Unlock()
	if rep == nil && jr.err != nil {
		rep = s.failure(jr.err)
	}
	switch {
	case f.lead != nil && rep == nil:
		s.memo.publish(f.mkey, f.lead, jr.res, jr.solveSeconds)
	case f.lead != nil:
		s.memo.abandon(f.mkey, f.lead)
	}
	if rep != nil {
		return rep
	}
	resp := newResponse(f.req, f.mkey.scenario, jr.res, PressureHash(jr.res.Pressure))
	resp.CacheHit, resp.Batched, resp.Engine, resp.BatchSize = f.hit, jr.shared, jr.engine, jr.batchSize
	resp.Timings = f.timings
	resp.Timings.SolveSeconds = jr.solveSeconds
	return s.render(f.start, resp)
}

// failure maps a solve error onto its reply: 504 for a deadline or drain
// cancellation, 422 for a Krylov breakdown or non-convergence, 500
// otherwise — each with whatever partial-progress diagnostics the engine
// attached (steps completed, iterations, residual history).
func (s *Server) failure(err error) *reply {
	resp := errorResponse{Error: err.Error()}
	var se *umesh.StepError
	if errors.As(err, &se) {
		resp.StepsCompleted = se.Step
		if se.Stats != nil {
			resp.IterationsCompleted = se.Stats.Iterations
			resp.ResidualHistory = se.Stats.History
		}
	}
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, solver.ErrCancelled):
		s.stats.CancelledSolves.Add(1)
		code = http.StatusGatewayTimeout
	case errors.Is(err, solver.ErrBreakdown), errors.Is(err, solver.ErrNotConverged):
		s.stats.SolverErrors.Add(1)
		code = http.StatusUnprocessableEntity
	}
	return errorReply(failed, code, resp)
}

// newResponse renders a solve result — fresh off an engine or out of the
// memo — as a response: key, steps, hash, and the field when asked for.
func newResponse(req SolveRequest, key string, res *umesh.TransientResult, hash string) *SolveResponse {
	resp := &SolveResponse{
		ScenarioKey:    key,
		Cells:          len(res.Pressure),
		PressureSHA256: hash,
	}
	for _, st := range res.Steps {
		resp.Steps = append(resp.Steps, StepReport{
			Iterations: st.Iterations,
			Residual:   st.Residual,
			MaxDeltaP:  st.MaxDeltaP,
			MassError:  st.MassError,
		})
		resp.Iterations += st.Iterations
	}
	if req.ReturnPressure {
		resp.Pressure = res.Pressure
	}
	return resp
}

// render is the last stage: marshal the response, measure the render on the
// injected clock, fill the closing timings in.
func (s *Server) render(start time.Time, resp *SolveResponse) *reply {
	renderStart := s.opts.Now()
	_, err := json.Marshal(resp)
	renderSeconds := s.opts.Now().Sub(renderStart).Seconds()
	s.stats.RenderSecondsTotal.add(renderSeconds)
	if err != nil {
		return reject(failed, http.StatusInternalServerError, "%v", err)
	}
	resp.Timings.RenderSeconds = renderSeconds
	resp.Timings.TotalSeconds = s.opts.Now().Sub(start).Seconds()
	// Re-marshal with the finished timings: the first marshal measured the
	// render cost, this one (identical layout, two floats filled in) is what
	// ships.
	body, _ := json.Marshal(resp)
	return &reply{outcome: completed, code: http.StatusOK, body: body}
}

// PressureHash is the serving layer's bit-identity probe: a hex SHA-256 over
// the field's raw little-endian float64 bits. Exported so benchmarks and
// tests can hash a reference solve the same way responses are hashed.
func PressureHash(p []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
