package serve

import (
	"math"
	"testing"
	"time"
)

// schedJob builds a backlog job for scheduler tests: steps drives the cost
// estimate, payload the coalescing identity, waited how long ago it arrived.
func schedJob(steps int, payload string, now time.Time, waited time.Duration) *job {
	return &job{
		req:        SolveRequest{Steps: steps},
		payloadKey: payload,
		enqueued:   now.Add(-waited),
	}
}

// stepsCost is a transparent estimate for tests: cost = steps seconds.
func stepsCost(steps int) float64 { return float64(steps) }

// TestSelectGroupShortestFirst pins the core policy: with equal waits the
// cheapest job leads the batch, wherever it sits in arrival order.
func TestSelectGroupShortestFirst(t *testing.T) {
	now := time.Unix(1700000000, 0)
	backlog := []*job{
		schedJob(5, "p5", now, 0),
		schedJob(3, "p3", now, 0),
		schedJob(1, "p1", now, 0),
	}
	group, reordered, aged := selectGroup(&backlog, 8, stepsCost, now)
	if len(group) != 1 || group[0].payloadKey != "p1" {
		t.Fatalf("picked %q, want the cheapest job p1", group[0].payloadKey)
	}
	if !reordered {
		t.Error("picking index 2 over index 0 must count as a reorder")
	}
	if aged {
		t.Error("equal waits cannot be an aged pick")
	}
	if len(backlog) != 2 || backlog[0].payloadKey != "p5" || backlog[1].payloadKey != "p3" {
		t.Errorf("remainder order not preserved: %q, %q", backlog[0].payloadKey, backlog[1].payloadKey)
	}
}

// TestSelectGroupDeterministicTie pins the tie-break: equal estimates and
// equal waits resolve to the earliest arrival, every time.
func TestSelectGroupDeterministicTie(t *testing.T) {
	now := time.Unix(1700000000, 0)
	for round := 0; round < 10; round++ {
		backlog := []*job{
			schedJob(2, "first", now, 0),
			schedJob(2, "second", now, 0),
			schedJob(2, "third", now, 0),
		}
		group, reordered, _ := selectGroup(&backlog, 1, stepsCost, now)
		if group[0].payloadKey != "first" {
			t.Fatalf("round %d: tie resolved to %q, want the earliest arrival", round, group[0].payloadKey)
		}
		if reordered {
			t.Errorf("round %d: picking the oldest job counted as a reorder", round)
		}
	}
}

// TestSelectGroupAgingOverridesCost pins the starvation guard: a long job
// that has waited past the cost difference overtakes a fresh cheap one.
func TestSelectGroupAgingOverridesCost(t *testing.T) {
	now := time.Unix(1700000000, 0)
	backlog := []*job{
		schedJob(10, "long", now, 30*time.Second), // prio 10 - 30 = -20
		schedJob(1, "short", now, 0),              // prio 1
	}
	group, _, aged := selectGroup(&backlog, 8, stepsCost, now)
	if group[0].payloadKey != "long" {
		t.Fatalf("picked %q, want the aged long job", group[0].payloadKey)
	}
	if !aged {
		t.Error("aging override not reported")
	}
}

// TestSelectGroupNoStarvation is the aging property test: one expensive job
// against an endless stream of fresh cheap arrivals still dispatches within
// the wait bounded by the cost difference — pure SJF would starve it
// forever.
func TestSelectGroupNoStarvation(t *testing.T) {
	now := time.Unix(1700000000, 0)
	expensive := schedJob(100, "expensive", now, 0)
	backlog := []*job{expensive}
	const tick = 5 * time.Second
	for round := 1; ; round++ {
		if round > 1000 {
			t.Fatal("expensive job starved for 1000 rounds")
		}
		now = now.Add(tick)
		// A fresh cheap competitor arrives every tick.
		backlog = append(backlog, schedJob(1, "cheap", now, 0))
		group, _, _ := selectGroup(&backlog, 1, stepsCost, now)
		if group[0] == expensive {
			// cost gap 99 s, aging 1 s/s of wait, ticks of 5 s → dispatched
			// on the first scan past 99 s waited.
			if waited := now.Sub(expensive.enqueued); waited > 105*time.Second {
				t.Errorf("expensive job waited %v, aging should cap it near the 99 s cost gap", waited)
			}
			return
		}
	}
}

// TestSelectGroupCoalescing pins that SJF keeps payload batching: every
// backlog job sharing the winner's payload rides the batch, up to max, and
// the remainder keeps arrival order.
func TestSelectGroupCoalescing(t *testing.T) {
	now := time.Unix(1700000000, 0)
	backlog := []*job{
		schedJob(5, "big", now, 0),
		schedJob(1, "small", now, 0),
		schedJob(5, "big", now, 0),
		schedJob(1, "small", now, 0),
		schedJob(1, "small", now, 0),
	}
	group, _, _ := selectGroup(&backlog, 2, stepsCost, now)
	if len(group) != 2 {
		t.Fatalf("batch size %d, want 2 (max)", len(group))
	}
	for i, j := range group {
		if j.payloadKey != "small" {
			t.Errorf("batch member %d has payload %q, want small", i, j.payloadKey)
		}
	}
	// Remainder: big, big, small — arrival order among the left-behind.
	want := []string{"big", "big", "small"}
	if len(backlog) != len(want) {
		t.Fatalf("remainder size %d, want %d", len(backlog), len(want))
	}
	for i, p := range want {
		if backlog[i].payloadKey != p {
			t.Errorf("remainder[%d] = %q, want %q", i, backlog[i].payloadKey, p)
		}
	}
}

// TestCostModelObserve pins the estimate's lifecycle: static prior, first
// observation replaces it, later observations blend by ewmaAlpha.
func TestCostModelObserve(t *testing.T) {
	m := newCostModel(1000, "amg")
	prior := 1000 * 0.11 * priorSecondsPerCellFactor
	if got := m.estimate(2); got != 2*prior {
		t.Errorf("static estimate = %g, want %g", got, 2*prior)
	}
	m.observe(0.4, 2) // 0.2 s/step replaces the prior outright
	if got := m.estimate(1); got != 0.2 {
		t.Errorf("after first observation estimate = %g, want 0.2", got)
	}
	m.observe(0.1, 1) // blends: 0.3*0.1 + 0.7*0.2 = 0.17
	want := ewmaAlpha*0.1 + (1-ewmaAlpha)*0.2
	if got := m.estimate(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("after blend estimate = %g, want %g", got, want)
	}
}

// TestRungIterationFactor pins the ladder ordering the static prior relies
// on: stronger rungs cost fewer iterations, unknown names get the ceiling.
func TestRungIterationFactor(t *testing.T) {
	j, s, c, a := rungIterationFactor("jacobi"), rungIterationFactor("ssor"),
		rungIterationFactor("chebyshev"), rungIterationFactor("amg")
	if !(j > s && s > c && c > a && a > 0) {
		t.Errorf("ladder factors not strictly decreasing: %g %g %g %g", j, s, c, a)
	}
	if rungIterationFactor("unknown") != j {
		t.Error("unknown preconditioner must get the jacobi ceiling")
	}
	// The factors are the pinned ladder of umesh's
	// TestPrecondLadderRecordedIterationCounts over its jacobi count, to two
	// decimals: move one and the other must follow.
	const jacobiIterations = 1365
	for _, rung := range []struct {
		precond    string
		iterations float64
	}{{"ssor", 795}, {"chebyshev", 369}, {"amg", 147}} {
		want := math.Round(100*rung.iterations/jacobiIterations) / 100
		if got := rungIterationFactor(rung.precond); got != want {
			t.Errorf("%s factor %g, the pinned ladder gives %g/%d = %g", rung.precond, got, rung.iterations, jacobiIterations, want)
		}
	}
}
