package serve

import (
	"bytes"
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

// TestRetryAfterFromQueueCost pins the queue-full 429 header on the
// injected clock: Retry-After is the price of the work in flight — its steps
// × its scenario's last observed seconds per step — clamped to ≥ 1 s. Before
// any solve of the scenario has been observed the price is 0 and the header
// reads 1.
func TestRetryAfterFromQueueCost(t *testing.T) {
	clock := newFakeClock()
	steps := make(chan struct{}, 8) // one token per solve step an engine may run
	hook := func(cancel func() bool) error {
		<-steps
		clock.Advance(1250 * time.Millisecond) // every step's fake duration
		return nil
	}
	s, ts := newTestServer(t, Options{QueueDepth: 1, Now: clock.Now, SolveHook: hook})
	t.Cleanup(func() { close(steps) })

	// solve posts a request that holds the one queue slot until its steps run.
	solve := func(n int) chan int {
		done := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
				strings.NewReader(testBody(fmt.Sprintf(`"steps":%d,"no_memo":true`, n))))
			if err != nil {
				done <- -1
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		return done
	}
	queueFull := func(want, why string) {
		t.Helper()
		resp := postRaw(t, ts, testBody(`"no_memo":true,"wells":[{"cell":1,"rate":1}]`))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-depth request: status %d, want 429", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != want {
			t.Errorf("Retry-After = %q, want %q (%s)", got, want, why)
		}
	}
	run := func(n int, done chan int) {
		t.Helper()
		for range n {
			steps <- struct{}{}
		}
		if code := <-done; code != http.StatusOK {
			t.Fatalf("blocked %d-step request finished with %d, want 200", n, code)
		}
	}

	done := solve(2)
	waitFor(t, func() bool { return s.Stats().Admitted == 1 })
	queueFull("1", "nothing observed yet: priced at 0, clamped to 1 s")
	run(2, done) // 2 steps in 2.5 fake seconds: 1.25 s per step

	done = solve(3)
	waitFor(t, func() bool { return s.Stats().QueuedCostSeconds == 3.75 })
	queueFull("4", "ceil of 3 queued steps × 1.25 s")
	run(3, done)
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
