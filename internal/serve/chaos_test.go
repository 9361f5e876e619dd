package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The chaos suite drives a live serving stack through a seeded fault plan —
// panics, stalls and breakdowns injected into engine solves — and asserts
// the availability contract the failure domains exist for:
//
//   - every request gets an answer (no hung waiters, no daemon death);
//   - only fault-struck requests fail, availability of the rest ≥ 99%;
//   - every success is bit-identical to a fault-free run of the same payload.
//
// `make chaos-smoke` runs exactly this test under the race detector.

const (
	chaosRequests = 120
	chaosWorkers  = 4
	chaosSeed     = 42
)

// chaosBody renders a steps=1 solve request for one of a few well-rate
// variants. steps=1 means one engine solve per request, so fault ordinals
// line up ~1:1 with requests.
func chaosBody(variant int) string {
	rate := 1 + variant%4
	return fmt.Sprintf(`{"scenario":{"rings":6,"sectors":8,"parts":2},"steps":1,"wells":[{"cell":47,"rate":%d}]}`, rate)
}

type chaosReply struct {
	status int
	hash   string // pressure_sha256 on 200
	errMsg string // error body otherwise
}

func post(t *testing.T, url, body string) chaosReply {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Errorf("transport error (daemon death?): %v", err)
		return chaosReply{status: -1, errMsg: err.Error()}
	}
	defer resp.Body.Close()
	var out struct {
		PressureSHA256 string `json:"pressure_sha256"`
		Error          string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Errorf("status %d: undecodable body: %v", resp.StatusCode, err)
		return chaosReply{status: resp.StatusCode}
	}
	return chaosReply{status: resp.StatusCode, hash: out.PressureSHA256, errMsg: out.Error}
}

func TestChaos(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	// Reference hashes from a fault-free server, one per payload variant.
	ref := make(map[int]string)
	func() {
		clean := New(Options{})
		ts := httptest.NewServer(clean.Handler())
		defer func() { ts.Close(); clean.Drain() }()
		for v := 0; v < 4; v++ {
			r := post(t, ts.URL, chaosBody(v))
			if r.status != http.StatusOK || r.hash == "" {
				t.Fatalf("reference solve variant %d: status %d (%s)", v, r.status, r.errMsg)
			}
			ref[v] = r.hash
		}
	}()

	// Chaos server: one engine, no memo — every request takes a real engine
	// solve, so the plan's ordinals are actually consumed. The
	// deadline comfortably exceeds the stall, so stalled solves complete.
	plan := randomFaultPlan(chaosSeed, chaosRequests, 3, 3, 3, 30*time.Millisecond, nil)
	s := New(Options{
		EnginesPerScenario: 1,
		QueueDepth:         chaosRequests * 2,
		MemoCapacity:       -1,
		DefaultDeadline:    10 * time.Second,
		solveHook:          plan.Hook(),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	replies := make([]chaosReply, chaosRequests)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < chaosWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				replies[i] = post(t, ts.URL, chaosBody(i))
			}
		}()
	}
	for i := 0; i < chaosRequests; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	completed, faulted := 0, 0
	for i, r := range replies {
		switch {
		case r.status == http.StatusOK:
			completed++
			if want := ref[i%4]; r.hash != want {
				t.Errorf("request %d: hash %s != fault-free reference %s", i, r.hash, want)
			}
		case r.status <= 0:
			t.Errorf("request %d: no HTTP response at all", i)
		case strings.Contains(r.errMsg, "panicked") || strings.Contains(r.errMsg, "breakdown"):
			faulted++ // struck directly by an injected fault
		default:
			// Collateral (e.g. a second pool loss while requeued) — allowed
			// only within the availability budget below.
			t.Logf("request %d: collateral %d: %s", i, r.status, r.errMsg)
		}
	}
	nonFaulted := chaosRequests - faulted
	availability := float64(completed) / float64(nonFaulted)
	t.Logf("completed %d / faulted %d / availability %.4f / fired %+v",
		completed, faulted, availability, plan.Counts())
	if availability < 0.99 {
		t.Errorf("availability of non-faulted requests = %.4f, want >= 0.99", availability)
	}

	fired := plan.Counts()
	if fired.panics+fired.stalls+fired.breakdowns == 0 {
		t.Error("no faults fired — the chaos run exercised nothing")
	}
	st := s.Stats()
	if st.EnginePanics != uint64(fired.panics) {
		t.Errorf("EnginePanics = %d, want %d (one per fired panic)", st.EnginePanics, fired.panics)
	}
	if fired.panics > 0 && st.EngineRestarts == 0 {
		t.Error("engine panicked but no restart was recorded — pool did not heal")
	}

	// The daemon must end the run healthy: healthz green and a clean solve
	// still bit-identical.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %v / %v", hz, err)
	}
	hz.Body.Close()
	if r := post(t, ts.URL, chaosBody(0)); r.status != http.StatusOK || r.hash != ref[0] {
		t.Errorf("post-chaos clean solve: status %d hash %s, want 200 %s", r.status, r.hash, ref[0])
	}
	s.Drain()

	// No residue: panicked, retired and healed pools all released their
	// goroutines by the time Drain returned; the closed connections' own
	// unwind a moment later.
	ts.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutinesBefore; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine residue after Drain: %d running, %d before the servers were built",
				runtime.NumGoroutine(), goroutinesBefore)
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.QueuedCostSeconds != 0 || st.Requests != st.Completed+st.Failed+st.RejectedRate+
		st.RejectedQueue+st.RejectedDraining+st.RejectedInvalid {
		t.Errorf("accounting residue after chaos: %+v", st)
	}
}
