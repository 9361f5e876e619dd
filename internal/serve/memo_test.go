package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// gatedSolves returns a solveHook that parks every solve until release is
// called. Register release as a cleanup after building the server, so it
// runs ahead of the drain and a failing test cannot hang.
func gatedSolves() (hook func(func() bool) error, release func()) {
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	return func(func() bool) error { <-gate; return nil }, release
}

// memoFollowers sums the requests that joined a memo entry in flight.
func memoFollowers(s *Server) (n int) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	for _, el := range s.memo.entries {
		n += el.Value.(*memoItem).e.followers
	}
	return n
}

// backlogLen is the number of jobs queued on the test scenario's engines.
func backlogLen(s *Server) int {
	s.cache.mu.Lock()
	el, ok := s.cache.entries[testScenario().Key()]
	s.cache.mu.Unlock()
	if !ok {
		return 0
	}
	e := el.Value.(*entry)
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.backlog)
}

// TestMemoHitSkipsEngine pins the memo contract end to end: an identical
// repeat request is served from the result memo — same bits, no engine, no
// new solve — with the original solve's cost as provenance.
func TestMemoHitSkipsEngine(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	var first, repeat SolveResponse
	if code := postSolve(t, ts, testBody(`"steps":2`), &first); code != http.StatusOK {
		t.Fatalf("first request: status %d", code)
	}
	if first.MemoHit {
		t.Error("first request reported a memo hit")
	}
	if code := postSolve(t, ts, testBody(`"steps":2`), &repeat); code != http.StatusOK {
		t.Fatalf("repeat request: status %d", code)
	}
	if !repeat.MemoHit {
		t.Fatal("repeat request missed the memo")
	}
	if repeat.Engine != -1 {
		t.Errorf("memo hit reports engine %d, want -1 (no engine involved)", repeat.Engine)
	}
	if repeat.PressureSHA256 != first.PressureSHA256 {
		t.Errorf("memo-served hash %s != original %s", repeat.PressureSHA256, first.PressureSHA256)
	}
	if len(repeat.Steps) != 2 || repeat.Iterations != first.Iterations {
		t.Errorf("memo-served solve report diverged: %d steps / %d iterations, want 2 / %d",
			len(repeat.Steps), repeat.Iterations, first.Iterations)
	}
	if repeat.MemoSolveSeconds != first.Timings.SolveSeconds {
		t.Errorf("memo provenance %g s != original solve %g s", repeat.MemoSolveSeconds, first.Timings.SolveSeconds)
	}
	if repeat.Timings.SolveSeconds != 0 || repeat.Timings.QueueSeconds != 0 {
		t.Errorf("memo hit reports engine-path timings: %+v", repeat.Timings)
	}
	st := s.Stats()
	if st.Solves != 1 {
		t.Errorf("Solves = %d, want 1 (repeat must not touch an engine)", st.Solves)
	}
	if st.MemoHits != 1 {
		t.Errorf("MemoHits = %d, want 1", st.MemoHits)
	}
	if st.MemoEntries != 1 {
		t.Errorf("MemoEntries = %d, want 1", st.MemoEntries)
	}
}

// TestMemoSingleFlight pins coalescing: N concurrent identical cold requests
// share the leader's one solve — everyone lands on the same bits, the
// engines run exactly once, and the stats count one group of N requests
// with N−1 shared solves. The solve is held until every follower has
// joined, so none of them arrives late enough to be a plain memo hit.
func TestMemoSingleFlight(t *testing.T) {
	hook, release := gatedSolves()
	s, ts := newTestServer(t, Options{QueueDepth: 64, solveHook: hook})
	t.Cleanup(release)
	const n = 8
	hashes := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp SolveResponse
			if code := postSolve(t, ts, testBody(`"steps":2`), &resp); code == http.StatusOK {
				hashes[i] = resp.PressureSHA256
			}
		}(i)
	}
	waitFor(t, func() bool { return memoFollowers(s) == n-1 })
	release()
	wg.Wait()
	want := hashes[0]
	for i, h := range hashes {
		if h == "" {
			t.Fatalf("request %d did not complete", i)
		}
		if h != want {
			t.Fatalf("request %d diverged: %s vs %s", i, h, want)
		}
	}
	st := s.Stats()
	if st.Solves != 1 {
		t.Errorf("Solves = %d, want 1 (single flight)", st.Solves)
	}
	if st.MemoHits != n-1 {
		t.Errorf("MemoHits = %d, want %d", st.MemoHits, n-1)
	}
	if st.Batches != 1 || st.BatchedRequests != n || st.SharedSolves != n-1 {
		t.Errorf("groups / members / shared = %d / %d / %d, want 1 / %d / %d",
			st.Batches, st.BatchedRequests, st.SharedSolves, n, n-1)
	}
}

// TestNoMemoIdenticalRequestsSolveSeparately pins that the memo's single
// flight is the only way requests share a solve: two identical no_memo
// requests queued together behind a busy engine each get an engine solve of
// their own, with the same bits.
func TestNoMemoIdenticalRequestsSolveSeparately(t *testing.T) {
	hook, release := gatedSolves()
	s, ts := newTestServer(t, Options{EnginesPerScenario: 1, solveHook: hook})
	t.Cleanup(release)
	var wg sync.WaitGroup
	resps := make([]SolveResponse, 3)
	post := func(i int, body string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&resps[i]); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d (%v)", i, resp.StatusCode, err)
			}
		}()
	}
	// The blocker holds the one engine while the identical pair queues.
	post(2, testBody(`"no_memo":true,"wells":[{"cell":1,"rate":1}]`))
	waitFor(t, func() bool { return s.Stats().SchedDecisions == 1 })
	post(0, testBody(`"no_memo":true,"steps":2`))
	post(1, testBody(`"no_memo":true,"steps":2`))
	waitFor(t, func() bool { return backlogLen(s) == 2 })
	release()
	wg.Wait()
	for i, r := range resps[:2] {
		if r.Engine < 0 || r.MemoHit {
			t.Errorf("request %d: engine %d, memo hit %v — want its own engine solve", i, r.Engine, r.MemoHit)
		}
	}
	if resps[0].PressureSHA256 != resps[1].PressureSHA256 {
		t.Errorf("identical requests diverged: %s vs %s", resps[0].PressureSHA256, resps[1].PressureSHA256)
	}
	if st := s.Stats(); st.Solves != 3 || st.SharedSolves != 0 {
		t.Errorf("Solves = %d, SharedSolves = %d; want 3 (the blocker and one per request), 0", st.Solves, st.SharedSolves)
	}
}

// TestMemoEviction pins the bound: capacity 1 means the second payload
// evicts the first, and repeating the first pays a fresh solve.
func TestMemoEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{MemoCapacity: 1})
	a, b := testBody(`"steps":1`), testBody(`"steps":2`)
	for _, body := range []string{a, b, a} {
		if code := postSolve(t, ts, body, nil); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	st := s.Stats()
	if st.Solves != 3 {
		t.Errorf("Solves = %d, want 3 (evicted payload re-solves)", st.Solves)
	}
	if st.MemoHits != 0 {
		t.Errorf("MemoHits = %d, want 0", st.MemoHits)
	}
	if st.MemoEntries != 1 {
		t.Errorf("MemoEntries = %d, want 1", st.MemoEntries)
	}
}

// TestMemoDisabled pins the off switch: negative capacity disables
// memoization entirely.
func TestMemoDisabled(t *testing.T) {
	s, ts := newTestServer(t, Options{MemoCapacity: -1})
	for i := 0; i < 2; i++ {
		var resp SolveResponse
		if code := postSolve(t, ts, testBody(""), &resp); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if resp.MemoHit {
			t.Errorf("request %d memo-hit with memoization disabled", i)
		}
	}
	st := s.Stats()
	if st.Solves != 2 || st.MemoHits != 0 || st.MemoEntries != 0 {
		t.Errorf("disabled memo leaked state: %d solves / %d hits / %d entries",
			st.Solves, st.MemoHits, st.MemoEntries)
	}
}

// TestMemoAbandonOnRejection pins the failure path: a leader shed downstream
// of the memo (compiled-mesh well bound) abandons its slot, so the identical
// repeat is rejected afresh instead of hanging on a never-published entry.
func TestMemoAbandonOnRejection(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	bad := testBody(`"wells":[{"cell":48,"rate":2}]`)
	for i := 0; i < 2; i++ {
		if code := postSolve(t, ts, bad, nil); code != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400", i, code)
		}
	}
	st := s.Stats()
	if st.RejectedInvalid != 2 {
		t.Errorf("RejectedInvalid = %d, want 2", st.RejectedInvalid)
	}
	if st.MemoEntries != 0 {
		t.Errorf("MemoEntries = %d, want 0 (abandoned slots must not linger)", st.MemoEntries)
	}
}
