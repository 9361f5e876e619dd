package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolClamping(t *testing.T) {
	cases := []struct {
		workers, shards         int
		wantWorkers, wantShards int
	}{
		{0, 0, 1, 1},
		{-3, 5, 1, 5},
		{8, 3, 3, 3},
		{2, 7, 2, 7},
	}
	for _, c := range cases {
		p := NewPool(c.workers, c.shards)
		if p.workers != c.wantWorkers || p.shards != c.wantShards {
			t.Errorf("NewPool(%d, %d): workers %d shards %d, want %d/%d",
				c.workers, c.shards, p.workers, p.shards, c.wantWorkers, c.wantShards)
		}
		p.Stop()
	}
}

// TestStopWaitsForWorkersAndIsIdempotent stops a multi-worker pool (right
// after a plan, so workers are still on their way back to wait) and finds no
// worker goroutine left soon after Stop returns; a second Stop does nothing
// (under -race it must not touch what the exiting workers read). Stop's Wait
// may return while an exiting worker still runs its deferred Done, so the
// stacks are scanned until workerLoop is gone, for at most 5 s: a worker
// that never exits still fails.
func TestStopWaitsForWorkersAndIsIdempotent(t *testing.T) {
	workerRunning := func() bool {
		buf := make([]byte, 1<<20)
		return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "exec.(*Pool).workerLoop")
	}
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers, 8)
		if err := p.Run(func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		p.Stop()
		for deadline := time.Now().Add(5 * time.Second); workerRunning(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: a worker goroutine is still running 5 s after Stop returned", workers)
			}
		}
		p.Stop()
	}
}

func TestPoolRunsEveryShardOncePerPhase(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const shards = 9
		p := NewPool(workers, shards)
		counts := make([]int, shards)
		for phase := 0; phase < 5; phase++ {
			if err := p.Run(func(s int) error {
				counts[s]++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		p.Stop()
		for s, n := range counts {
			if n != 5 {
				t.Errorf("workers=%d: shard %d ran %d times, want 5", workers, s, n)
			}
		}
	}
}

func TestPoolBarrierOrdersPhases(t *testing.T) {
	// Every shard increments in phase 1; phase 2 reads ALL shards' values.
	// If Run returned before the barrier, phase 2 would observe a partial
	// phase-1 state (and -race would flag the unsynchronized access).
	const shards = 8
	p := NewPool(3, shards)
	defer p.Stop()
	vals := make([]int, shards)
	for round := 1; round <= 10; round++ {
		if err := p.Run(func(s int) error {
			vals[s]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(func(s int) error {
			for _, v := range vals {
				if v != round {
					return fmt.Errorf("shard %d saw stale value %d in round %d", s, v, round)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolErrorPropagation(t *testing.T) {
	p := NewPool(2, 6)
	defer p.Stop()
	sentinel := errors.New("shard 3 failed")
	var ran atomic.Int32
	err := p.Run(func(s int) error {
		ran.Add(1)
		if s == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run returned %v, want %v", err, sentinel)
	}
	// The barrier still waits for every shard even when one errors.
	if got := ran.Load(); got != 6 {
		t.Errorf("%d shards ran, want 6", got)
	}
	// The pool stays usable after an error (the errs channel was drained).
	if err := p.Run(func(int) error { return nil }); err != nil {
		t.Fatalf("Run after error: %v", err)
	}
}

func TestPoolSteadyStateRunAllocatesNothing(t *testing.T) {
	p := NewPool(2, 4)
	defer p.Stop()
	sink := make([]int, 4)
	fn := func(s int) error { // pre-built closure, as the engines hold them
		sink[s]++
		return nil
	}
	if err := p.Run(fn); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.Run(fn); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Run allocates %.1f objects per phase, want 0", allocs)
	}
}

// --- Plan executor tests ---

func TestPlanStepsRunInOrderWithActions(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		const shards = 8
		p := NewPool(workers, shards)
		vals := make([]int, shards)
		var sum, secs float64
		plan := p.NewPlan([]Step{
			{Phase: func(s int) error { vals[s] = s + 1; return nil }},
			{
				Phase: func(s int) error { vals[s] *= 2; return nil },
				Actions: []func() (bool, error){func() (bool, error) {
					sum = 0
					for _, v := range vals {
						sum += float64(v)
					}
					return false, nil
				}},
				Bucket: &secs,
			},
		})
		for round := 0; round < 5; round++ {
			stopped, err := plan.Execute()
			if err != nil || stopped {
				t.Fatalf("workers=%d: Execute = %v, %v", workers, stopped, err)
			}
			if want := float64(shards * (shards + 1)); sum != want {
				t.Errorf("workers=%d: action saw sum %v, want %v", workers, sum, want)
			}
		}
		if secs <= 0 {
			t.Errorf("workers=%d: bucket not charged", workers)
		}
		p.Stop()
	}
}

func TestPlanErrorPropagationMidPlan(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := NewPool(workers, 4)
		sentinel := errors.New("phase two failed")
		var ran1, ran2, ran3 atomic.Int32
		plan := p.NewPlan([]Step{
			{Phase: func(s int) error { ran1.Add(1); return nil }},
			{Phase: func(s int) error {
				ran2.Add(1)
				if s == 2 {
					return sentinel
				}
				return nil
			}},
			{Phase: func(s int) error { ran3.Add(1); return nil }},
		})
		stopped, err := plan.Execute()
		if !errors.Is(err, sentinel) || stopped {
			t.Fatalf("workers=%d: Execute = %v, %v; want %v", workers, stopped, err, sentinel)
		}
		// The erroring step still runs every shard; later steps never start.
		if ran1.Load() != 4 || ran2.Load() != 4 || ran3.Load() != 0 {
			t.Errorf("workers=%d: steps ran %d/%d/%d shards, want 4/4/0",
				workers, ran1.Load(), ran2.Load(), ran3.Load())
		}
		// The pool stays usable after an error.
		ran1.Store(0)
		ran2.Store(0)
		if _, err := p.NewPlan([]Step{{Phase: func(int) error { return nil }}}).Execute(); err != nil {
			t.Fatalf("workers=%d: Execute after error: %v", workers, err)
		}
		p.Stop()
	}
}

func TestPlanActionErrorAndEarlyStop(t *testing.T) {
	p := NewPool(2, 4)
	defer p.Stop()
	sentinel := errors.New("action failed")
	var ran2 atomic.Int32
	plan := p.NewPlan([]Step{
		{
			Phase:   func(int) error { return nil },
			Actions: []func() (bool, error){func() (bool, error) { return false, sentinel }},
		},
		{Phase: func(int) error { ran2.Add(1); return nil }},
	})
	if _, err := plan.Execute(); !errors.Is(err, sentinel) {
		t.Fatalf("Execute = %v, want %v", err, sentinel)
	}
	if ran2.Load() != 0 {
		t.Errorf("step after action error ran %d shards, want 0", ran2.Load())
	}

	stopPlan := p.NewPlan([]Step{
		{
			Phase:   func(int) error { return nil },
			Actions: []func() (bool, error){func() (bool, error) { return true, nil }},
		},
		{Phase: func(int) error { ran2.Add(1); return nil }},
	})
	stopped, err := stopPlan.Execute()
	if err != nil || !stopped {
		t.Fatalf("Execute = %v, %v; want stopped, nil", stopped, err)
	}
	if ran2.Load() != 0 {
		t.Errorf("step after early stop ran %d shards, want 0", ran2.Load())
	}
}

func TestPlanDeterministicShardOrderUnderOversubscription(t *testing.T) {
	// workers=2 over 8 shards: the static mapping gives each worker a fixed
	// contiguous range swept in ascending order, every execution.
	const workers, shards = 2, 8
	p := NewPool(workers, shards)
	defer p.Stop()
	var next atomic.Int32
	order := make([]int32, shards)
	plan := p.NewPlan([]Step{{Phase: func(s int) error {
		order[s] = next.Add(1)
		return nil
	}}})
	for round := 0; round < 50; round++ {
		next.Store(0)
		if _, err := plan.Execute(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < workers; k++ {
			lo, hi := k*shards/workers, (k+1)*shards/workers
			for s := lo + 1; s < hi; s++ {
				if order[s] <= order[s-1] {
					t.Fatalf("round %d: shard %d ran before shard %d within worker %d's range",
						round, s, s-1, k)
				}
			}
		}
	}
}

func TestPlanBarrierStressRace(t *testing.T) {
	// Barrier stress at GOMAXPROCS>1: phase 2 of every round reads all of
	// phase 1's writes; -race flags any missing ordering in the barrier.
	prev := runtime.GOMAXPROCS(0)
	if prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	const workers, shards = 4, 8
	p := NewPool(workers, shards)
	defer p.Stop()
	vals := make([]int, shards)
	var total int
	plan := p.NewPlan([]Step{
		{Phase: func(s int) error { vals[s]++; return nil }},
		{
			Phase: func(s int) error {
				want := vals[0]
				for _, v := range vals {
					if v != want {
						return fmt.Errorf("shard %d saw torn phase-1 state", s)
					}
				}
				return nil
			},
			Actions: []func() (bool, error){func() (bool, error) {
				total = 0
				for _, v := range vals {
					total += v
				}
				return false, nil
			}},
		},
	})
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	for round := 1; round <= rounds; round++ {
		if _, err := plan.Execute(); err != nil {
			t.Fatal(err)
		}
		if total != round*shards {
			t.Fatalf("round %d: action total %d, want %d", round, total, round*shards)
		}
	}
}

func TestPlanSteadyStateExecuteAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := NewPool(workers, 4)
		sink := make([]float64, 4)
		var sum, secs float64
		plan := p.NewPlan([]Step{
			{Phase: func(s int) error { sink[s] += 1; return nil }},
			{
				Phase: func(s int) error { sink[s] *= 0.5; return nil },
				Actions: []func() (bool, error){func() (bool, error) {
					sum = sink[0] + sink[1] + sink[2] + sink[3]
					return false, nil
				}},
				Bucket: &secs,
			},
		})
		if _, err := plan.Execute(); err != nil { // warm-up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := plan.Execute(); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("workers=%d: steady-state Execute allocates %.1f objects per plan, want 0", workers, allocs)
		}
		_ = sum
		p.Stop()
	}
}

func TestPoolCounters(t *testing.T) {
	// Inline (workers=1): dispatches count plan runs, barriers stay 0.
	p1 := NewPool(1, 4)
	plan1 := p1.NewPlan([]Step{{Phase: func(int) error { return nil }}, {Phase: func(int) error { return nil }}})
	plan1.Execute()
	plan1.Execute()
	if b, d := p1.Counters(); b != 0 || d != 2 {
		t.Errorf("inline counters = %d barriers/%d dispatches, want 0/2", b, d)
	}
	p1.Stop()

	// workers>1: one barrier crossing per executed step, one dispatch per plan.
	p2 := NewPool(2, 4)
	plan2 := p2.NewPlan([]Step{{Phase: func(int) error { return nil }}, {Phase: func(int) error { return nil }}})
	plan2.Execute()
	plan2.Execute()
	if b, d := p2.Counters(); b != 4 || d != 2 {
		t.Errorf("counters = %d barriers/%d dispatches, want 4/2", b, d)
	}
	if err := p2.Run(func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if b, d := p2.Counters(); b != 5 || d != 3 {
		t.Errorf("counters after Run = %d barriers/%d dispatches, want 5/3", b, d)
	}
	p2.Stop()
}

// TestParkedWorkersWake reaches both park paths on purpose: worker 1, left
// idle past its spin budget, parks awaiting the next dispatch, and, done
// with its own shard while shard 0 sleeps, parks again at the barrier. Both
// wake and the plan runs every shard of every step.
func TestParkedWorkersWake(t *testing.T) {
	const pause = 20 * time.Millisecond
	p := NewPool(2, 2)
	defer p.Stop()
	var ran [2]atomic.Int32
	phase := func(s int) error {
		if s == 0 {
			time.Sleep(pause)
		}
		ran[s].Add(1)
		return nil
	}
	pl := p.NewPlan([]Step{{Phase: phase}, {Phase: phase}})
	for rep := 1; rep <= 2; rep++ {
		time.Sleep(pause)
		if _, err := pl.Execute(); err != nil {
			t.Fatal(err)
		}
		for s := range ran {
			if got := ran[s].Load(); got != int32(2*rep) {
				t.Fatalf("dispatch %d: shard %d ran %d times, want %d", rep, s, got, 2*rep)
			}
		}
	}
}
