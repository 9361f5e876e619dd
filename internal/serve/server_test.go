package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer builds a server over the small test scenario and an httptest
// front end; the cleanup drains it so every test exercises shutdown too, and
// asserts the accounting invariants on what the test left behind.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
		assertQuiescent(t, s)
	})
	return s, ts
}

// assertQuiescent is the end-of-test check every server-building test in
// this package runs once no request is in flight: the conservation law
// (every request ended in exactly one terminal counter) and a queued cost
// of exactly zero — not approximately: charge and refund are integers.
func assertQuiescent(t *testing.T, s *Server) {
	t.Helper()
	st := s.Stats()
	if st.Requests != ended(st) {
		t.Errorf("conservation law broken: %d requests, %d terminal outcomes (%+v)", st.Requests, ended(st), st)
	}
	if st.QueuedCostSeconds != 0 {
		t.Errorf("queued cost at rest = %g s, want exactly 0", st.QueuedCostSeconds)
	}
}

// ended sums the terminal counters: the right-hand side of the conservation
// law.
func ended(st StatsSnapshot) uint64 {
	return st.Completed + st.Failed + st.RejectedRate + st.RejectedQueue +
		st.RejectedDraining + st.RejectedInvalid
}

// goroutineResidue records the goroutine count and returns the check that
// it has come back down. Take it before building the server (and its
// httptest front end) and run it after both are closed; it polls briefly
// because a closed connection's goroutines unwind asynchronously.
func goroutineResidue(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Errorf("goroutine residue: %d running, %d before the server was built\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// postSolve posts a body to /v1/solve and decodes the response into out (a
// *SolveResponse on 200, *map[string]any otherwise). It returns the status.
func postSolve(t *testing.T, ts *httptest.Server, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %d response: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// testBody renders a solve request for the small test scenario.
func testBody(extra string) string {
	b := `{"scenario":{"rings":6,"sectors":8,"parts":2}`
	if extra != "" {
		b += "," + extra
	}
	return b + "}"
}

// TestSolveRejectsInvalid drives the 400 table: malformed JSON, unknown
// fields, unknown scenarios, and out-of-range per-request inputs must all be
// rejected before any compilation happens.
func TestSolveRejectsInvalid(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"scenario":`},
		{"unknown field", `{"scenario":{},"bogus":1}`},
		{"unknown mesh", `{"scenario":{"mesh":"tetrahedral"}}`},
		{"unknown precond", `{"scenario":{"precond":"ilu"}}`},
		{"retired rung ssor", `{"scenario":{"precond":"ssor"}}`},
		{"parts not power of two", `{"scenario":{"rings":6,"sectors":8,"parts":3}}`},
		{"more parts than cells", `{"scenario":{"rings":6,"sectors":8,"parts":64}}`},
		{"more parts than RCB builds", `{"scenario":{"parts":512,"precond":"amg"}}`},
		{"negative steps", testBody(`"steps":-1`)},
		{"steps over the bound", testBody(`"steps":1001`)},
		{"negative well cell", testBody(`"wells":[{"cell":-1,"rate":2}]`)},
		{"zero-rate well", testBody(`"wells":[{"cell":0,"rate":0}]`)},
		{"zero-rate wells", testBody(`"wells":[{"cell":0,"rate":0},{"cell":47,"rate":-0.0}]`)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var errBody map[string]any
			if code := postSolve(t, ts, c.body, &errBody); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%v)", code, errBody)
			}
			if errBody["error"] == "" {
				t.Error("400 body carries no error message")
			}
		})
	}
	st := s.Stats()
	if st.RejectedInvalid != uint64(len(cases)) {
		t.Errorf("RejectedInvalid = %d, want %d", st.RejectedInvalid, len(cases))
	}
	if st.CacheMisses != 0 {
		t.Errorf("invalid requests compiled %d scenarios", st.CacheMisses)
	}
	// A client error is turned away at decode: it never takes a queue slot,
	// a memo slot or an engine.
	if st.Admitted != 0 || st.Solves != 0 || st.MemoEntries != 0 || st.Failed != 0 {
		t.Errorf("invalid requests got past decode: %d admitted, %d solves, %d memo entries, %d failed",
			st.Admitted, st.Solves, st.MemoEntries, st.Failed)
	}
}

// TestSolveMaxCellsBound pins the admission-time size gate: a scenario over
// MaxCells is rejected before compiling.
func TestSolveMaxCellsBound(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxCells: 40})
	if code := postSolve(t, ts, testBody(""), nil); code != http.StatusBadRequest {
		t.Fatalf("48-cell scenario over a 40-cell bound: status %d, want 400", code)
	}
}

// TestWellValidationAgainstCompiledMesh pins the post-compile well bound:
// well indices are checked against the compiled mesh's real cell count (48
// here), not the pre-compile estimate — the last valid cell solves, the
// first out-of-range one is a 400 that names the compiled count.
func TestWellValidationAgainstCompiledMesh(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	if code := postSolve(t, ts, testBody(`"wells":[{"cell":47,"rate":2}]`), nil); code != http.StatusOK {
		t.Fatalf("well at last cell: status %d, want 200", code)
	}
	var errBody map[string]any
	if code := postSolve(t, ts, testBody(`"wells":[{"cell":48,"rate":2}]`), &errBody); code != http.StatusBadRequest {
		t.Fatalf("well past last cell: status %d, want 400", code)
	}
	msg, _ := errBody["error"].(string)
	if !strings.Contains(msg, "48-cell") {
		t.Errorf("rejection does not name the compiled cell count: %q", msg)
	}
	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("CacheMisses = %d, want 1 (both requests share one compile)", st.CacheMisses)
	}
	if st.RejectedInvalid != 1 {
		t.Errorf("RejectedInvalid = %d, want 1", st.RejectedInvalid)
	}
}

// TestSolveColdThenWarm pins the cache contract end to end: the first
// request misses and pays compilation, the repeat hits, skips it, and lands
// on the same bits.
func TestSolveColdThenWarm(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	var cold, warm SolveResponse
	if code := postSolve(t, ts, testBody(""), &cold); code != http.StatusOK {
		t.Fatalf("cold request: status %d", code)
	}
	// no_memo on the repeat: this test pins the scenario cache, so the
	// request must reach the engines instead of the result memo.
	if cold.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if cold.Timings.CompileSeconds <= 0 {
		t.Error("cold request reports no compile time")
	}
	if cold.Cells != 48 {
		t.Errorf("served mesh has %d cells, want 48", cold.Cells)
	}
	if cold.Iterations == 0 || len(cold.Steps) != 1 {
		t.Errorf("cold response carries no solve report: %+v", cold)
	}
	if code := postSolve(t, ts, testBody(`"no_memo":true`), &warm); code != http.StatusOK {
		t.Fatalf("warm request: status %d", code)
	}
	if !warm.CacheHit {
		t.Error("repeat request missed the cache")
	}
	if warm.Timings.CompileSeconds != 0 {
		t.Errorf("warm request paid %g s of compilation", warm.Timings.CompileSeconds)
	}
	if warm.PressureSHA256 != cold.PressureSHA256 {
		t.Errorf("warm solve diverged from cold: %s vs %s", warm.PressureSHA256, cold.PressureSHA256)
	}
	if warm.ScenarioKey != cold.ScenarioKey {
		t.Errorf("same scenario keyed differently: %s vs %s", warm.ScenarioKey, cold.ScenarioKey)
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("cache counters %d miss / %d hit, want 1/1", st.CacheMisses, st.CacheHits)
	}
	if st.ResidentScenarios != 1 {
		t.Errorf("ResidentScenarios = %d, want 1", st.ResidentScenarios)
	}
}

// TestSolveBitIdenticalToOneShot is the determinism acceptance: the served
// result — including after engine reuse and with per-request wells — hashes
// identically to the one-shot CLI path.
func TestSolveBitIdenticalToOneShot(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reqs := []SolveRequest{
		{Scenario: testScenario(), Steps: 2},
		{Scenario: testScenario(), Steps: 2, Wells: []WellSpec{{Cell: 0, Rate: 1.5}, {Cell: 47, Rate: -1.5}}},
		{Scenario: testScenario(), Steps: 2}, // repeat: same engine, after solving different wells
	}
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var served SolveResponse
		if code := postSolve(t, ts, string(body), &served); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		ref, err := OneShot(req)
		if err != nil {
			t.Fatalf("request %d: one-shot reference: %v", i, err)
		}
		if want := PressureHash(ref.Pressure); served.PressureSHA256 != want {
			t.Errorf("request %d: served hash %s != one-shot %s", i, served.PressureSHA256, want)
		}
	}
}

// TestServeRecordPressureHashReproduces pins the end-to-end fixed point of
// the serving path: a one-shot solve of the default scenario (15360 cells,
// 8 parts, AMG at tolerance 1e-2, one step) hashes to this constant, so a
// change to any float on the AMG path fails here.
func TestServeRecordPressureHashReproduces(t *testing.T) {
	const want = "ab8e475fc7982a69257ef2fbf16d45740326f9a1df6d27220e1e3863c409991d"
	// The hash is an amd64 value: the umesh float64 kernels carry no
	// explicit anti-FMA roundings, so an architecture that contracts a·b + c
	// into one rounding produces a different (equally valid) field.
	if runtime.GOARCH != "amd64" {
		t.Skipf("pressure_sha256 was recorded on amd64, this is %s", runtime.GOARCH)
	}
	res, err := OneShot(SolveRequest{Scenario: Scenario{Parts: 8, Precond: "amg", Tol: 1e-2}, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := PressureHash(res.Pressure); got != want {
		t.Errorf("default scenario hashes to %s, want %s", got, want)
	}
}

// TestSolveReturnPressure pins the optional full-field response: the
// returned slice hashes to the advertised SHA-256.
func TestSolveReturnPressure(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var resp SolveResponse
	if code := postSolve(t, ts, testBody(`"return_pressure":true`), &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Pressure) != resp.Cells {
		t.Fatalf("returned %d pressure values for %d cells", len(resp.Pressure), resp.Cells)
	}
	if got := PressureHash(resp.Pressure); got != resp.PressureSHA256 {
		t.Errorf("returned field hashes to %s, response advertises %s", got, resp.PressureSHA256)
	}
}

// TestRateLimit429 pins the token-bucket gate with a frozen clock: burst
// admits, the next request is shed with 429 and Retry-After.
func TestRateLimit429(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	s, ts := newTestServer(t, Options{RatePerSec: 1, Burst: 1, Now: func() time.Time { return clock }})
	if code := postSolve(t, ts, testBody(""), nil); code != http.StatusOK {
		t.Fatalf("burst request: status %d, want 200", code)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(testBody(""))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	if st := s.Stats(); st.RejectedRate != 1 {
		t.Errorf("RejectedRate = %d, want 1", st.RejectedRate)
	}
}

// TestQueueFull429 pins the bounded queue: with depth 1, concurrent
// requests beyond the slot are shed with 429 while admitted ones complete.
func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueDepth: 1})
	body := testBody(`"steps":40`)
	for attempt := 0; attempt < 5; attempt++ {
		const n = 12
		codes := make([]int, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					return
				}
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}(i)
		}
		wg.Wait()
		ok, shed := 0, 0
		for _, c := range codes {
			switch c {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
			}
		}
		if ok >= 1 && shed >= 1 {
			if st := s.Stats(); st.RejectedQueue == 0 {
				t.Error("queue rejections not counted")
			}
			return
		}
		// All n ran sequentially without overlap — retry the round.
	}
	t.Skip("could not provoke queue overlap on this host")
}

// TestDrainGraceful pins the shutdown contract: an admitted request runs to
// completion through Drain, late requests and health checks get 503.
func TestDrainGraceful(t *testing.T) {
	defer goroutineResidue(t)() // runs last: after ts.Close below
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		resp SolveResponse
	}
	resc := make(chan result, 1)
	go func() {
		var r result
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			bytes.NewReader([]byte(testBody(`"steps":40`))))
		if err == nil {
			r.code = resp.StatusCode
			_ = json.NewDecoder(resp.Body).Decode(&r.resp)
			resp.Body.Close()
		}
		resc <- r
	}()
	// Wait for the request to be admitted, then drain under it.
	for i := 0; i < 500; i++ {
		if s.Stats().Admitted >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain()

	r := <-resc
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200", r.code)
	}
	if len(r.resp.Steps) != 40 {
		t.Errorf("in-flight request ran %d steps, want 40", len(r.resp.Steps))
	}
	if code := postSolve(t, ts, testBody(""), nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain solve: status %d, want 503", code)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz: status %d, want 503", hresp.StatusCode)
	}
	if st := s.Stats(); st.RejectedDraining == 0 {
		t.Error("draining rejections not counted")
	}
	assertQuiescent(t, s)
}

// TestCacheEviction pins the LRU bound: capacity 1 means a second scenario
// evicts the first, and re-requesting the first recompiles it.
func TestCacheEviction(t *testing.T) {
	// no_memo throughout: eviction is about the scenario cache, and the
	// result memo outlives evicted engines by design — a memoized repeat
	// would never recompile.
	s, ts := newTestServer(t, Options{CacheCapacity: 1})
	a := testBody(`"no_memo":true`)
	b := `{"scenario":{"rings":6,"sectors":8,"parts":1},"no_memo":true}`
	if code := postSolve(t, ts, a, nil); code != http.StatusOK {
		t.Fatalf("scenario A: status %d", code)
	}
	if code := postSolve(t, ts, b, nil); code != http.StatusOK {
		t.Fatalf("scenario B: status %d", code)
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	if st.ResidentScenarios != 1 {
		t.Errorf("ResidentScenarios = %d, want 1", st.ResidentScenarios)
	}
	var again SolveResponse
	if code := postSolve(t, ts, a, &again); code != http.StatusOK {
		t.Fatalf("scenario A again: status %d", code)
	}
	if again.CacheHit {
		t.Error("evicted scenario reported a cache hit")
	}
	if st := s.Stats(); st.CacheMisses != 3 {
		t.Errorf("CacheMisses = %d, want 3 (A, B, A-again)", st.CacheMisses)
	}
}

// TestConcurrentSameScenario is the -race stress: many goroutines hammer one
// scenario through a 2-engine pool with identical no_memo requests; every
// response must be 200, land on identical bits, and have had an engine solve
// of its own.
func TestConcurrentSameScenario(t *testing.T) {
	s, ts := newTestServer(t, Options{EnginesPerScenario: 2, QueueDepth: 64})
	const goroutines, perG = 8, 4
	hashes := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
					bytes.NewReader([]byte(testBody(`"steps":2,"no_memo":true`))))
				if err != nil {
					return
				}
				var sr SolveResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					return
				}
				hashes[g] = append(hashes[g], sr.PressureSHA256)
			}
		}(g)
	}
	wg.Wait()
	var want string
	total := 0
	for g := range hashes {
		if len(hashes[g]) != perG {
			t.Fatalf("goroutine %d completed %d/%d requests", g, len(hashes[g]), perG)
		}
		for _, h := range hashes[g] {
			if want == "" {
				want = h
			}
			if h != want {
				t.Fatalf("concurrent responses diverged: %s vs %s", h, want)
			}
			total++
		}
	}
	st := s.Stats()
	if st.Completed != uint64(total) {
		t.Errorf("Completed = %d, want %d", st.Completed, total)
	}
	if st.Solves != st.Completed {
		t.Errorf("%d solves for %d completed no_memo requests, want one each", st.Solves, st.Completed)
	}
	if st.SchedDecisions == 0 {
		t.Error("engine-bound load recorded no scheduler decisions")
	}
}

// TestStatsEndpoint pins /v1/stats: the snapshot is served as JSON with the
// counters the benchmarks record.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if code := postSolve(t, ts, testBody(""), nil); code != http.StatusOK {
		t.Fatalf("solve: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 1 || snap.Completed != 1 || snap.CacheMisses != 1 {
		t.Errorf("stats snapshot off: %+v", snap)
	}
}
