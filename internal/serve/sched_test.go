package serve

import (
	"math"
	"testing"
	"time"
)

// schedJob builds a backlog job for scheduler tests: steps drives the cost
// estimate, waited how long ago it arrived.
func schedJob(steps int, now time.Time, waited time.Duration) *job {
	return &job{req: SolveRequest{Steps: steps}, enqueued: now.Add(-waited)}
}

// stepsCost is a transparent estimate for tests: cost = steps seconds.
func stepsCost(steps int) float64 { return float64(steps) }

// TestSelectGroupShortestFirst pins the core policy: with equal waits the
// cheapest job is picked, wherever it sits in arrival order.
func TestSelectGroupShortestFirst(t *testing.T) {
	now := time.Unix(1700000000, 0)
	p5, p3, p1 := schedJob(5, now, 0), schedJob(3, now, 0), schedJob(1, now, 0)
	backlog := []*job{p5, p3, p1}
	picked, reordered, aged := selectGroup(&backlog, stepsCost, now)
	if picked != p1 {
		t.Fatalf("picked a %d-step job, want the cheapest (1 step)", picked.req.Steps)
	}
	if !reordered {
		t.Error("picking index 2 over index 0 must count as a reorder")
	}
	if aged {
		t.Error("equal waits cannot be an aged pick")
	}
	if len(backlog) != 2 || backlog[0] != p5 || backlog[1] != p3 {
		t.Errorf("remainder order not preserved: %v", backlog)
	}
}

// TestSelectGroupDeterministicTie pins the tie-break: equal estimates and
// equal waits resolve to the earliest arrival, every time.
func TestSelectGroupDeterministicTie(t *testing.T) {
	now := time.Unix(1700000000, 0)
	for round := 0; round < 10; round++ {
		first := schedJob(2, now, 0)
		backlog := []*job{first, schedJob(2, now, 0), schedJob(2, now, 0)}
		picked, reordered, _ := selectGroup(&backlog, stepsCost, now)
		if picked != first {
			t.Fatalf("round %d: tie resolved to a later arrival, want the earliest", round)
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
	long := schedJob(10, now, 30*time.Second)    // prio 10 - 30 = -20
	backlog := []*job{long, schedJob(1, now, 0)} // prio 1
	picked, _, aged := selectGroup(&backlog, stepsCost, now)
	if picked != long {
		t.Fatalf("picked a %d-step job, want the aged long one", picked.req.Steps)
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
	expensive := schedJob(100, now, 0)
	backlog := []*job{expensive}
	const tick = 5 * time.Second
	for round := 1; ; round++ {
		if round > 1000 {
			t.Fatal("expensive job starved for 1000 rounds")
		}
		now = now.Add(tick)
		// A fresh cheap competitor arrives every tick.
		backlog = append(backlog, schedJob(1, now, 0))
		if picked, _, _ := selectGroup(&backlog, stepsCost, now); picked == expensive {
			// cost gap 99 s, aging 1 s/s of wait, ticks of 5 s → dispatched
			// on the first scan past 99 s waited.
			if waited := now.Sub(expensive.enqueued); waited > 105*time.Second {
				t.Errorf("expensive job waited %v, aging should cap it near the 99 s cost gap", waited)
			}
			return
		}
	}
}

// TestSelectGroupTakesOneJob pins that a pick is one job: identical
// requests queued together are each solved on their own (sharing a solve is
// the memo's single flight, upstream of the backlog), and the remainder
// keeps arrival order.
func TestSelectGroupTakesOneJob(t *testing.T) {
	now := time.Unix(1700000000, 0)
	big1, small1, big2, small2, small3 := schedJob(5, now, 0), schedJob(1, now, 0),
		schedJob(5, now, 0), schedJob(1, now, 0), schedJob(1, now, 0)
	backlog := []*job{big1, small1, big2, small2, small3}
	for _, want := range []*job{small1, small2, small3, big1, big2} {
		if picked, _, _ := selectGroup(&backlog, stepsCost, now); picked != want {
			t.Fatalf("picked a %d-step job out of order", picked.req.Steps)
		}
	}
	if len(backlog) != 0 {
		t.Errorf("%d jobs left behind, want 0", len(backlog))
	}
}

// TestCostModelObserve pins the estimate's lifecycle: static prior, first
// observation replaces it, later observations blend by ewmaAlpha.
func TestCostModelObserve(t *testing.T) {
	m := newCostModel(1000, "amg")
	prior := 1000 * 0.12 * priorSecondsPerCellFactor
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
	j, c, a := rungIterationFactor("jacobi"), rungIterationFactor("chebyshev"), rungIterationFactor("amg")
	if !(j > c && c > a && a > 0) {
		t.Errorf("ladder factors not strictly decreasing: %g %g %g", j, c, a)
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
	}{{"chebyshev", 369}, {"amg", 159}} {
		want := math.Round(100*rung.iterations/jacobiIterations) / 100
		if got := rungIterationFactor(rung.precond); got != want {
			t.Errorf("%s factor %g, the pinned ladder gives %g/%d = %g", rung.precond, got, rung.iterations, jacobiIterations, want)
		}
	}
}
