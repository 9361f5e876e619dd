package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/solver"
)

// Deterministic, seeded fault plans for the failure-domain tests: a
// faultPlan schedules faults onto the Nth, Mth, ... engine step-solves a
// server performs, and Hook() adapts it to the server's solveHook seam
// (which the engine edge passes on as umesh.TransientOptions.BeforeSolve).
// Three fault kinds cover the failure domains the serving layer defends:
//
//   - faultPanic: an unrecovered panic inside the solve — exercises the
//     engine pool's recover/retire/recompile path;
//   - faultStall: the solve wedges for a fixed duration — exercises
//     deadlines, cancellation and bounded drains (the stall polls the
//     solve's cancel hook, exactly like a cooperative long computation
//     would);
//   - faultBreakdown: the solve fails with solver.ErrBreakdown — exercises
//     the 422 error surface.
//
// Determinism: a plan is pure data (fault kind per solve ordinal), and
// randomFaultPlan derives that data from a seed through its own rng — the
// same seed always faults the same ordinals the same way, so chaos runs
// replay bit-identically on the non-faulted requests.

// faultKind is a fault flavor.
type faultKind int

const (
	// faultPanic panics inside the solve (the engine pool must recover it).
	faultPanic faultKind = iota
	// faultStall blocks the solve for stallFor, polling the cancel hook — a
	// cooperative wedge that deadlines and forced drains can unstick.
	faultStall
	// faultBreakdown fails the solve with solver.ErrBreakdown.
	faultBreakdown
)

func (k faultKind) String() string {
	switch k {
	case faultPanic:
		return "panic"
	case faultStall:
		return "stall"
	case faultBreakdown:
		return "breakdown"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// fault schedules one fault onto the solve-th engine step-solve the hook
// observes (1-based: solve=1 faults the very first solve).
type fault struct {
	solve    int
	kind     faultKind
	stallFor time.Duration // faultStall only
}

// faultCounts reports how many faults of each kind a plan has fired.
type faultCounts struct {
	panics, stalls, breakdowns int
}

// faultPlan is a deterministic fault schedule. Install it with Hook(); every
// engine step-solve increments the ordinal and fires the fault scheduled
// for it, if any. Safe for concurrent use — ordinals are assigned under a
// lock, so exactly one solve observes each scheduled fault.
type faultPlan struct {
	now   func() time.Time
	sleep time.Duration // stall poll interval

	mu      sync.Mutex
	byOrd   map[int]fault
	ordinal int

	panics, stalls, breakdowns atomic.Int64
}

// newFaultPlan builds a plan from an explicit fault list. now drives stall
// timing (nil = time.Now) — pass the server's injected clock so stalls and
// deadlines share one notion of time.
func newFaultPlan(faults []fault, now func() time.Time) *faultPlan {
	if now == nil {
		now = time.Now
	}
	p := &faultPlan{now: now, sleep: 200 * time.Microsecond, byOrd: make(map[int]fault)}
	for _, f := range faults {
		p.byOrd[f.solve] = f
	}
	return p
}

// randomFaultPlan seeds a plan with nPanics+nStalls+nBreakdowns faults
// spread uniformly (without collision) over solve ordinals 1..totalSolves.
// The same seed always yields the same plan.
func randomFaultPlan(seed int64, totalSolves, nPanics, nStalls, nBreakdowns int, stallFor time.Duration, now func() time.Time) *faultPlan {
	rng := rand.New(rand.NewSource(seed))
	want := nPanics + nStalls + nBreakdowns
	if want > totalSolves {
		want = totalSolves
	}
	used := make(map[int]bool, want)
	ordinals := make([]int, 0, want)
	for len(ordinals) < want {
		ord := 1 + rng.Intn(totalSolves)
		if !used[ord] {
			used[ord] = true
			ordinals = append(ordinals, ord)
		}
	}
	var faults []fault
	for i, ord := range ordinals {
		switch {
		case i < nPanics:
			faults = append(faults, fault{solve: ord, kind: faultPanic})
		case i < nPanics+nStalls:
			faults = append(faults, fault{solve: ord, kind: faultStall, stallFor: stallFor})
		default:
			faults = append(faults, fault{solve: ord, kind: faultBreakdown})
		}
	}
	return newFaultPlan(faults, now)
}

// Counts snapshots the fired-fault counters.
func (p *faultPlan) Counts() faultCounts {
	return faultCounts{
		panics:     int(p.panics.Load()),
		stalls:     int(p.stalls.Load()),
		breakdowns: int(p.breakdowns.Load()),
	}
}

// Scheduled reports the total number of faults in the plan.
func (p *faultPlan) Scheduled() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.byOrd)
}

// Hook adapts the plan to the server's fault seam: install the returned
// function as Options.solveHook. It runs before each engine step-solve with
// that solve's cancel hook.
func (p *faultPlan) Hook() func(cancel func() bool) error {
	return func(cancel func() bool) error {
		p.mu.Lock()
		p.ordinal++
		f, ok := p.byOrd[p.ordinal]
		p.mu.Unlock()
		if !ok {
			return nil
		}
		switch f.kind {
		case faultPanic:
			p.panics.Add(1)
			panic(fmt.Sprintf("faultinject: scheduled panic on solve %d", f.solve))
		case faultStall:
			p.stalls.Add(1)
			start := p.now()
			for p.now().Sub(start) < f.stallFor {
				if cancel != nil && cancel() {
					// A cancelled stall reports like a cancelled solve, so
					// deadlines and forced drains see the wedge end the same
					// way a cooperative computation would.
					return fmt.Errorf("faultinject: stall on solve %d cancelled: %w", f.solve, solver.ErrCancelled)
				}
				time.Sleep(p.sleep)
			}
			return nil
		case faultBreakdown:
			p.breakdowns.Add(1)
			return fmt.Errorf("faultinject: forced breakdown on solve %d: %w", f.solve, solver.ErrBreakdown)
		}
		return nil
	}
}

// TestPlanFiresOnScheduledOrdinals: faults fire on exactly the scheduled
// solves, nowhere else.
func TestPlanFiresOnScheduledOrdinals(t *testing.T) {
	p := newFaultPlan([]fault{
		{solve: 2, kind: faultBreakdown},
		{solve: 4, kind: faultBreakdown},
	}, nil)
	hook := p.Hook()
	never := func() bool { return false }
	for ord := 1; ord <= 6; ord++ {
		err := hook(never)
		want := ord == 2 || ord == 4
		if got := err != nil; got != want {
			t.Fatalf("solve %d: err=%v, want fault=%v", ord, err, want)
		}
		if err != nil && !errors.Is(err, solver.ErrBreakdown) {
			t.Fatalf("solve %d: %v does not wrap solver.ErrBreakdown", ord, err)
		}
	}
	if c := p.Counts(); c.breakdowns != 2 || c.panics != 0 || c.stalls != 0 {
		t.Fatalf("counts = %+v, want 2 breakdowns", c)
	}
}

// TestPanicFault: the hook panics — the caller (the engine pool) is the one
// who must recover.
func TestPanicFault(t *testing.T) {
	p := newFaultPlan([]fault{{solve: 1, kind: faultPanic}}, nil)
	hook := p.Hook()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduled panic did not fire")
		}
		if c := p.Counts(); c.panics != 1 {
			t.Fatalf("counts = %+v, want 1 panic", c)
		}
	}()
	_ = hook(func() bool { return false })
}

// TestStallHonorsInjectedClockAndCancel: a stall waits out its duration on
// the injected clock, and a tripped cancel unsticks it early with an error
// wrapping solver.ErrCancelled — the property bounded drains rely on.
func TestStallHonorsInjectedClockAndCancel(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(10 * time.Millisecond) // stepping clock: each poll advances
		return now
	}
	p := newFaultPlan([]fault{{solve: 1, kind: faultStall, stallFor: 50 * time.Millisecond}}, clock)
	p.sleep = 0
	if err := p.Hook()(func() bool { return false }); err != nil {
		t.Fatalf("uncancelled stall returned %v, want nil (it just delays)", err)
	}

	p2 := newFaultPlan([]fault{{solve: 1, kind: faultStall, stallFor: time.Hour}}, clock)
	p2.sleep = 0
	polls := 0
	cancel := func() bool { polls++; return polls > 3 }
	err := p2.Hook()(cancel)
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("cancelled stall returned %v, want ErrCancelled wrap", err)
	}
	if c := p2.Counts(); c.stalls != 1 {
		t.Fatalf("counts = %+v, want 1 stall", c)
	}
}

// TestRandomPlanDeterministic: the same seed yields the same schedule; a
// different seed a different one (for any usefully sized space).
func TestRandomPlanDeterministic(t *testing.T) {
	a := randomFaultPlan(7, 100, 2, 2, 2, time.Millisecond, nil)
	b := randomFaultPlan(7, 100, 2, 2, 2, time.Millisecond, nil)
	if a.Scheduled() != 6 || b.Scheduled() != 6 {
		t.Fatalf("scheduled %d/%d faults, want 6", a.Scheduled(), b.Scheduled())
	}
	for ord := 1; ord <= 100; ord++ {
		fa, oka := a.byOrd[ord]
		fb, okb := b.byOrd[ord]
		if oka != okb || fa != fb {
			t.Fatalf("solve %d: plans diverged for one seed: %v/%v vs %v/%v", ord, fa, oka, fb, okb)
		}
	}
}

// TestRandomPlanKindMix: the requested kind counts survive the shuffle.
func TestRandomPlanKindMix(t *testing.T) {
	p := randomFaultPlan(3, 200, 3, 2, 4, time.Millisecond, nil)
	kinds := map[faultKind]int{}
	for _, f := range p.byOrd {
		kinds[f.kind]++
	}
	if kinds[faultPanic] != 3 || kinds[faultStall] != 2 || kinds[faultBreakdown] != 4 {
		t.Fatalf("kind mix = %v, want 3 panics / 2 stalls / 4 breakdowns", kinds)
	}
}
