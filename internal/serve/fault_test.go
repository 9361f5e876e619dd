package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/solver"
)

// steppingClock advances by a fixed step on every Now() call — time visibly
// passes between any two observations, without any real sleeping. It is the
// deadline tests' clock: a frozen clock can never expire anything, and a
// real clock can't expire a 1 ms deadline deterministically.
type steppingClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newSteppingClock(step time.Duration) *steppingClock {
	return &steppingClock{t: time.Unix(1700000000, 0), step: step}
}

func (c *steppingClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// postRaw posts a body and returns the raw response (callers read headers).
func postRaw(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestDeadlineExpiresBeforeDispatch pins the cheap half of the deadline
// contract: with a stepping clock, a deadline_ms=1 request is already
// expired by the time the dispatcher considers it, so it is shed from the
// queue — 504, zero iterations, and no engine solve consumed at all.
func TestDeadlineExpiresBeforeDispatch(t *testing.T) {
	clock := newSteppingClock(5 * time.Millisecond)
	s, ts := newTestServer(t, Options{Now: clock.Now})
	var errBody map[string]any
	code := postSolve(t, ts, testBody(`"deadline_ms":1,"no_memo":true`), &errBody)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%v)", code, errBody)
	}
	msg, _ := errBody["error"].(string)
	if !strings.Contains(msg, "deadline expired") {
		t.Errorf("504 body does not name the deadline: %q", msg)
	}
	if _, ok := errBody["iterations_completed"]; ok {
		t.Errorf("queue-shed request reports iterations: %v", errBody)
	}
	st := s.Stats()
	if st.Solves != 0 {
		t.Errorf("Solves = %d, want 0 — an expired-in-queue request consumed an engine", st.Solves)
	}
	if st.CancelledSolves != 1 || st.Failed != 1 {
		t.Errorf("CancelledSolves/Failed = %d/%d, want 1/1", st.CancelledSolves, st.Failed)
	}

	// A negative deadline is a client bug, not a timeout.
	if code := postSolve(t, ts, testBody(`"deadline_ms":-5`), nil); code != http.StatusBadRequest {
		t.Errorf("deadline_ms=-5: status %d, want 400", code)
	}
}

// TestNotConvergedReturns422 drives a solve that cannot meet its tolerance
// inside its iteration budget: the response must be a 422 carrying the
// partial-progress diagnostics (iterations completed, residual history) so
// the client sees how far the Krylov loop got.
func TestNotConvergedReturns422(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := `{"scenario":{"rings":6,"sectors":8,"parts":2,"max_iter":2,"tol":1e-30}}`
	var errBody map[string]any
	if code := postSolve(t, ts, body, &errBody); code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%v)", code, errBody)
	}
	msg, _ := errBody["error"].(string)
	if !strings.Contains(msg, "umesh: step 0:") {
		t.Errorf("422 body does not locate the failing step: %q", msg)
	}
	if got, _ := errBody["iterations_completed"].(float64); got != 2 {
		t.Errorf("iterations_completed = %v, want 2 (the max_iter budget)", errBody["iterations_completed"])
	}
	hist, _ := errBody["residual_history"].([]any)
	if len(hist) == 0 {
		t.Error("422 body carries no residual history")
	}
	st := s.Stats()
	if st.SolverErrors != 1 || st.Failed != 1 {
		t.Errorf("SolverErrors/Failed = %d/%d, want 1/1", st.SolverErrors, st.Failed)
	}
}

// TestBreakdownReturns422 injects a forced Krylov breakdown through the
// solve hook: same 422 surface, reached through the error-wrapping path
// rather than the iteration budget.
func TestBreakdownReturns422(t *testing.T) {
	hook := func(cancel func() bool) error {
		return fmt.Errorf("injected: %w", solver.ErrBreakdown)
	}
	s, ts := newTestServer(t, Options{SolveHook: hook})
	var errBody map[string]any
	if code := postSolve(t, ts, testBody(""), &errBody); code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%v)", code, errBody)
	}
	msg, _ := errBody["error"].(string)
	if !strings.Contains(msg, "breakdown") {
		t.Errorf("422 body does not name the breakdown: %q", msg)
	}
	if st := s.Stats(); st.SolverErrors != 1 {
		t.Errorf("SolverErrors = %d, want 1", st.SolverErrors)
	}
}

// TestRetryAfterFromTokenBucket pins the rate-limit 429 header: with a
// frozen clock, burst 1 and rate 0.25 tokens/sec, the second request is
// rejected exactly one token short — Retry-After must be the bucket's real
// refill time, ceil(1/0.25) = 4 s, not a hardcoded 1.
func TestRetryAfterFromTokenBucket(t *testing.T) {
	clock := newFakeClock()
	_, ts := newTestServer(t, Options{RatePerSec: 0.25, Burst: 1, Now: clock.Now})
	if resp := postRaw(t, ts, testBody("")); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", resp.StatusCode)
	}
	resp := postRaw(t, ts, testBody(""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Errorf("Retry-After = %q, want \"4\" (one token at 0.25 tokens/sec)", got)
	}
	// Refill restores admission: after 4 fake seconds the bucket holds a
	// token again.
	clock.Advance(4 * time.Second)
	if resp := postRaw(t, ts, testBody("")); resp.StatusCode != http.StatusOK {
		t.Errorf("post-refill request: status %d, want 200", resp.StatusCode)
	}
}

// TestRetryAfterFromQueueCost pins the queue-full 429 header: Retry-After
// must reflect the estimated drain time of the work already queued (the
// blocked request's static cost prior), not a constant.
func TestRetryAfterFromQueueCost(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	hook := func(cancel func() bool) error { <-gate; return nil }
	s, ts := newTestServer(t, Options{QueueDepth: 1, SolveHook: hook})
	t.Cleanup(release)

	// 3600 steps × 48 cells × jacobi rung 1 × 1.5e-5 s/cell = 2.592 s of
	// estimated queue cost → ceil = 3.
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			bytes.NewReader([]byte(testBody(`"steps":3600,"no_memo":true`))))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.Stats().QueuedCostSeconds > 2 })

	resp := postRaw(t, ts, testBody(`"no_memo":true,"wells":[{"cell":1,"rate":1}]`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\" (ceil of 2.592 s queued cost)", got)
	}
	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("blocked request finished with %d, want 200", code)
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEnginePanicSelfHeals is the pool's failure-domain contract: a panic
// inside a solve fails that request (500, not a daemon death), retires the
// engine, recompiles the scenario in the background, and the next request
// is served healthy and bit-identically.
func TestEnginePanicSelfHeals(t *testing.T) {
	var fired atomic.Bool
	hook := func(cancel func() bool) error {
		if fired.CompareAndSwap(false, true) {
			panic("fault_test: scheduled panic")
		}
		return nil
	}
	t.Cleanup(goroutineResidue(t)) // registered first, so it runs after the server's cleanup
	s, ts := newTestServer(t, Options{SolveHook: hook, MemoCapacity: -1})

	var refResp SolveResponse
	var errBody map[string]any
	if code := postSolve(t, ts, testBody(""), &errBody); code != http.StatusInternalServerError {
		t.Fatalf("panicked solve: status %d, want 500 (%v)", code, errBody)
	}
	msg, _ := errBody["error"].(string)
	if !strings.Contains(msg, "panicked") {
		t.Errorf("500 body does not name the panic: %q", msg)
	}
	if st := s.Stats(); st.EnginePanics != 1 {
		t.Fatalf("EnginePanics = %d, want 1", st.EnginePanics)
	}
	// The heal is asynchronous: the scenario recompiles in the background.
	waitFor(t, func() bool { return s.Stats().EngineRestarts >= 1 })

	if code := postSolve(t, ts, testBody(""), &refResp); code != http.StatusOK {
		t.Fatalf("post-heal solve: status %d, want 200", code)
	}
	if refResp.PressureSHA256 == "" {
		t.Error("post-heal solve carries no pressure hash")
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0 — a heal is a retire+recompile, not an eviction", st.Evictions)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz after heal: %v / %v", hz, err)
	}
	hz.Body.Close()
}

// TestBrownoutHysteresis walks the degradation state machine end to end:
// queued cost over the high watermark enters degraded mode (advertised on
// /healthz, expensive requests shed with 503 + Retry-After, memo hits still
// served), and draining back under the low watermark exits it.
func TestBrownoutHysteresis(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	var gated atomic.Bool
	hook := func(cancel func() bool) error {
		if gated.Load() {
			<-gate
		}
		return nil
	}

	// The expensive driver scenario is distinct from the memo-primed one, so
	// its cost estimate comes from the static prior (deterministic under a
	// frozen clock, where a resident EWMA would have decayed to ~0).
	const bigSteps = 100
	big := Scenario{Rings: 8, Sectors: 8, Parts: 2}
	prior := float64(big.cellEstimate()) * rungIterationFactor("") * priorSecondsPerCellFactor * bigSteps
	bigBody := func(extra string) string {
		return fmt.Sprintf(`{"scenario":{"rings":8,"sectors":8,"parts":2},"steps":%d,"no_memo":true%s}`, bigSteps, extra)
	}

	clock := newFakeClock()
	s, ts := newTestServer(t, Options{
		Now:                 clock.Now,
		SolveHook:           hook,
		BrownoutHighSeconds: prior * 0.9,
	})
	t.Cleanup(release)

	// Prime the memo with a cheap scenario while the gate is open.
	if code := postSolve(t, ts, testBody(""), nil); code != http.StatusOK {
		t.Fatalf("memo prime: status %d, want 200", code)
	}

	gated.Store(true)
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(bigBody(""))))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.Stats().Degraded })
	if st := s.Stats(); st.DegradedEnters != 1 {
		t.Fatalf("DegradedEnters = %d, want 1", st.DegradedEnters)
	}

	// Expensive request while degraded: shed with 503 and a Retry-After.
	resp := postRaw(t, ts, bigBody(`,"wells":[{"cell":1,"rate":1}]`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expensive request while degraded: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 carries no Retry-After")
	}
	if st := s.Stats(); st.RejectedDegraded != 1 {
		t.Errorf("RejectedDegraded = %d, want 1", st.RejectedDegraded)
	}

	// Memo hits are cheap — still served while degraded.
	var memoResp SolveResponse
	if code := postSolve(t, ts, testBody(""), &memoResp); code != http.StatusOK || !memoResp.MemoHit {
		t.Errorf("memo hit while degraded: status %d memo_hit %v, want 200 true", code, memoResp.MemoHit)
	}

	// /healthz advertises the mode without going unhealthy.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz while degraded: %v / %v", hz, err)
	}
	var hzBody map[string]string
	if err := json.NewDecoder(hz.Body).Decode(&hzBody); err != nil || hzBody["status"] != "degraded" {
		t.Errorf("healthz status = %v (%v), want degraded", hzBody, err)
	}
	hz.Body.Close()

	// Drain: the blocked solve completes, queued cost falls under the low
	// watermark, and the state machine exits degraded mode.
	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("blocked expensive request finished with %d, want 200", code)
	}
	waitFor(t, func() bool { return !s.Stats().Degraded })
	if st := s.Stats(); st.DegradedExits != 1 {
		t.Errorf("DegradedExits = %d, want 1", st.DegradedExits)
	}
}

// TestDrainWithinForceCancelsStall pins the bounded-shutdown contract: a
// solve wedged in a stall (polling its cancel hook, as any cooperative
// computation would) cannot hang Drain — past the bound it is
// force-cancelled, answers 504, and the drain completes.
func TestDrainWithinForceCancelsStall(t *testing.T) {
	var entered atomic.Bool
	hook := func(cancel func() bool) error {
		entered.Store(true)
		for !cancel() {
			time.Sleep(time.Millisecond)
		}
		return fmt.Errorf("stall cancelled: %w", solver.ErrCancelled)
	}
	s := New(Options{SolveHook: hook, MemoCapacity: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(testBody(""))))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return entered.Load() })

	start := time.Now()
	s.DrainWithin(100 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain of a stalled solve took %v — the bound did not hold", elapsed)
	}
	if code := <-done; code != http.StatusGatewayTimeout {
		t.Errorf("stalled request finished with %d, want 504", code)
	}
	if st := s.Stats(); st.CancelledSolves != 1 {
		t.Errorf("CancelledSolves = %d, want 1", st.CancelledSolves)
	}
	assertQuiescent(t, s)
}
