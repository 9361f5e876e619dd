// Package exec is the shared phase-program execution layer of the engines: a
// fixed set of worker goroutines that run precompiled plans — fixed lists of
// phase functions with explicit barrier points — over a fixed set of shards.
// It is used by every partitioned runtime (the structured row-band engine and
// the unstructured part engine / operator in umesh), so all of them share one
// scheduling discipline:
//
//   - a shard is a stable integer in [0, shards); what it denotes (a band
//     of PE-grid rows, an RCB part) is the caller's business;
//   - a Plan is a compiled sequence of Steps; each Step is one phase function
//     dispatched over every shard, followed by a barrier and then the Step's
//     host Actions (reductions, convergence checks) run exactly once;
//   - workers run SPMD-style through the whole plan: each worker owns a fixed
//     contiguous shard range (shard→worker mapping is static, so shards >
//     workers oversubscription never serializes through a queue), sweeps it
//     in ascending shard order, and meets the others at a sense-reversing
//     spin-then-park barrier between steps. One orchestrator round-trip wakes
//     the pool per plan, not per phase;
//   - workers persist across plans (and across engine applications), so the
//     steady state spawns no goroutines and allocates nothing;
//   - with one worker the whole plan executes inline on the caller's
//     goroutine: no atomics, no barriers, no wakeups.
//
// Determinism note: the pool never reduces results itself. Engines that need
// deterministic output reduce per-shard state in fixed shard order from a
// Step's Actions (or after Execute returns), so the values an engine reports
// are independent of which worker finished first.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinBudget is how many times a worker yields at a barrier before parking
// on the condition variable. Spinning keeps barrier latency in the sub-µs
// range when all workers are running; parking keeps oversubscribed hosts
// (GOMAXPROCS < workers) from burning a scheduling quantum per crossing.
const spinBudget = 64

// noAbort is abortAt's clean value: larger than any step index.
const noAbort = int64(1) << 62

// Step is one entry of a Plan: a phase function dispatched over every shard,
// then a barrier, then the host Actions.
type Step struct {
	// Phase runs once per shard. May be nil for an action-only step (a pure
	// barrier carrying host work).
	Phase func(shard int) error
	// Actions run exactly once, on whichever worker arrives last at the
	// step's barrier, after every shard of Phase completed and before any
	// worker starts the next step — the place for deterministic reductions
	// and convergence checks. An action returning stop=true skips all
	// remaining steps of the plan; an error aborts the plan.
	Actions []func() (stop bool, err error)
	// Bucket, when non-nil, accumulates the step's wall-clock seconds
	// (measured on the orchestrator between barrier crossings).
	Bucket *float64
}

// Plan is a compiled phase program bound to its Pool. Build once, Execute
// many times; steady-state execution allocates nothing.
type Plan struct {
	pool  *Pool
	steps []Step
}

// Pool runs phase programs over a fixed shard set on persistent worker
// goroutines. A Pool is driven by one orchestrating goroutine: Execute, Run
// and Stop must not be called concurrently with each other. The orchestrator
// participates as worker 0, so NewPool(w, s) spawns w-1 goroutines.
type Pool struct {
	workers int
	shards  int
	lo      []int // worker k owns shards [lo[k], lo[k+1])

	mu   sync.Mutex
	cond *sync.Cond

	// seq is the dispatch generation: bumped (under mu) once per Execute to
	// wake the pool, and once by Stop with cur==nil to retire it.
	seq atomic.Uint64
	cur *Plan

	// stopped records (under mu) that Stop has run; exited counts the
	// worker goroutines out as they return, so Stop can wait for them.
	stopped bool
	exited  sync.WaitGroup

	// epoch is the barrier generation; arrived counts workers at the current
	// barrier. The last arriver runs the step's Actions, resets arrived, and
	// bumps epoch (the sense reversal) under mu before broadcasting.
	epoch   atomic.Uint64
	arrived atomic.Int64

	// abortAt is the lowest step index whose phase or actions errored
	// (noAbort when clean). It is index-tagged rather than a plain flag so a
	// worker racing ahead into step N+1 cannot make a slower worker skip
	// step N+1 from its step-N barrier check.
	abortAt   atomic.Int64
	planStop  bool    // an action requested early stop; barrier-owner write
	werr      []error // per-worker first phase error
	wshard    []int   // shard of that error
	actionErr error

	// Orchestrator-side counters (see Counters).
	barriers   uint64
	dispatches uint64

	runStep [1]Step // backing store for Run's reusable one-step plan
	runPlan Plan
}

// NewPool starts a pool of min(workers, shards) workers over the given shard
// count; workers-1 goroutines live until Stop (the orchestrator is worker 0).
// Workers and shards are clamped to at least 1.
func NewPool(workers, shards int) *Pool {
	if shards < 1 {
		shards = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	p := &Pool{
		workers: workers,
		shards:  shards,
		lo:      make([]int, workers+1),
		werr:    make([]error, workers),
		wshard:  make([]int, workers),
	}
	p.cond = sync.NewCond(&p.mu)
	for k := 0; k <= workers; k++ {
		p.lo[k] = k * shards / workers
	}
	p.runPlan = Plan{pool: p, steps: p.runStep[:]}
	p.exited.Add(workers - 1)
	for k := 1; k < workers; k++ {
		// The initial dispatch generation is captured here, before the
		// goroutine starts: loading it inside the worker would race with an
		// Execute issued before the worker's first instruction.
		go p.workerLoop(k, p.seq.Load())
	}
	return p
}

// Counters reports the pool's lifetime synchronization counts: barriers is
// the number of barrier crossings (one per executed plan step; always 0 with
// one worker, where plans run inline with no synchronization at all), and
// dispatches is the number of plan executions the orchestrator issued
// (Execute and Run calls, inline ones included).
func (p *Pool) Counters() (barriers, dispatches uint64) {
	return p.barriers, p.dispatches
}

// NewPlan compiles a step sequence into a Plan bound to this pool. The steps
// slice is retained; callers must not mutate it afterwards.
func (p *Pool) NewPlan(steps []Step) *Plan {
	return &Plan{pool: p, steps: steps}
}

// Execute runs the plan to completion: every worker sweeps its shard range
// through each step, separated by barriers. It returns stopped=true when an
// action ended the plan early, and the first error (lowest erroring shard
// wins, for determinism; action errors are reported when no phase erred).
// Within the erroring step every shard still runs — no worker is left
// touching shared state — but subsequent steps are skipped.
func (pl *Plan) Execute() (stopped bool, err error) {
	p := pl.pool
	p.dispatches++
	if p.workers == 1 {
		return p.executeInline(pl)
	}
	p.planStop = false
	p.actionErr = nil
	for k := range p.werr {
		p.werr[k] = nil
	}
	p.abortAt.Store(noAbort)
	p.cur = pl
	p.mu.Lock()
	p.seq.Add(1)
	p.mu.Unlock()
	p.cond.Broadcast()
	p.execute(pl, 0)
	return p.planStop, p.collectErr()
}

// executeInline is the one-worker fast path: the whole plan runs on the
// caller's goroutine with no synchronization.
func (p *Pool) executeInline(pl *Plan) (bool, error) {
	var first error
	stopped := false
	tPrev := time.Now()
	for si := range pl.steps {
		st := &pl.steps[si]
		if st.Phase != nil {
			for s := 0; s < p.shards; s++ {
				if err := st.Phase(s); err != nil && first == nil {
					first = err
				}
			}
		}
		if first == nil {
			for _, a := range st.Actions {
				stop, err := a()
				if err != nil {
					first = err
					break
				}
				if stop {
					stopped = true
					break
				}
			}
		}
		now := time.Now()
		if st.Bucket != nil {
			*st.Bucket += now.Sub(tPrev).Seconds()
		}
		tPrev = now
		if first != nil || stopped {
			break
		}
	}
	if first != nil {
		return false, first
	}
	return stopped, nil
}

// execute walks worker k through every step of the plan. After an abort or
// early stop the remaining steps' work is skipped but their barriers are
// still crossed, so every worker leaves the plan in lockstep and the
// orchestrator can return (and reset per-plan state) safely.
func (p *Pool) execute(pl *Plan, k int) {
	lo, hi := p.lo[k], p.lo[k+1]
	skip := false
	var tPrev time.Time
	if k == 0 {
		tPrev = time.Now()
	}
	for si := range pl.steps {
		st := &pl.steps[si]
		if !skip && st.Phase != nil {
			for s := lo; s < hi; s++ {
				if err := st.Phase(s); err != nil {
					if p.werr[k] == nil {
						p.werr[k] = err
						p.wshard[k] = s
					}
					p.recordAbort(si)
				}
			}
		}
		p.barrier(st, si, skip)
		if k == 0 {
			now := time.Now()
			if st.Bucket != nil {
				*st.Bucket += now.Sub(tPrev).Seconds()
			}
			tPrev = now
			p.barriers++
		}
		// Only consult the shared flags when another step follows: after the
		// final barrier the orchestrator may already be resetting them for
		// the next plan.
		if si+1 < len(pl.steps) && (p.abortAt.Load() <= int64(si) || p.planStop) {
			skip = true
		}
	}
}

// barrier is the sense-reversing spin-then-park barrier between steps. The
// last arriver runs the step's Actions (unless the plan already aborted or
// stopped), resets the arrival count, and publishes the next epoch; everyone
// else spins for spinBudget yields and then parks on the condition variable.
func (p *Pool) barrier(st *Step, si int, skip bool) {
	e := p.epoch.Load()
	if p.arrived.Add(1) == int64(p.workers) {
		// All workers have arrived, so no one is past step si: abortAt can
		// only hold indexes ≤ si here.
		if !skip && p.abortAt.Load() > int64(si) {
			for _, a := range st.Actions {
				stop, err := a()
				if err != nil {
					p.actionErr = err
					p.recordAbort(si)
					break
				}
				if stop {
					p.planStop = true
					break
				}
			}
		}
		p.arrived.Store(0)
		p.mu.Lock()
		p.epoch.Store(e + 1)
		p.mu.Unlock()
		p.cond.Broadcast()
		return
	}
	for i := 0; i < spinBudget; i++ {
		if p.epoch.Load() != e {
			return
		}
		runtime.Gosched()
	}
	p.mu.Lock()
	for p.epoch.Load() == e {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// recordAbort lowers abortAt to step index si (atomic min).
func (p *Pool) recordAbort(si int) {
	for {
		cur := p.abortAt.Load()
		if int64(si) >= cur || p.abortAt.CompareAndSwap(cur, int64(si)) {
			return
		}
	}
}

// collectErr returns the plan's error: the phase error from the lowest
// erroring shard, else the first action error, else nil.
func (p *Pool) collectErr() error {
	best := -1
	var err error
	for k, e := range p.werr {
		if e != nil && (best == -1 || p.wshard[k] < best) {
			best = p.wshard[k]
			err = e
		}
	}
	if err != nil {
		return err
	}
	return p.actionErr
}

// workerLoop is the body of workers 1..workers-1: wait for a dispatch, run
// the posted plan, repeat until Stop posts a nil plan.
func (p *Pool) workerLoop(k int, last uint64) {
	defer p.exited.Done()
	for {
		last = p.awaitSeq(last)
		pl := p.cur
		if pl == nil {
			return
		}
		p.execute(pl, k)
	}
}

// awaitSeq spins, then parks, until the dispatch generation moves past last.
func (p *Pool) awaitSeq(last uint64) uint64 {
	for i := 0; i < spinBudget; i++ {
		if s := p.seq.Load(); s != last {
			return s
		}
		runtime.Gosched()
	}
	p.mu.Lock()
	for {
		if s := p.seq.Load(); s != last {
			p.mu.Unlock()
			return s
		}
		p.cond.Wait()
	}
}

// Run dispatches fn over every shard and blocks until all shards complete —
// the single-phase barrier, preserved as a convenience on top of Execute via
// a reusable one-step plan. The first error (lowest shard) is returned after
// every shard finishes, so no worker is still touching shared state when the
// caller proceeds.
//
// Phase functions must not block on work produced by another shard of the
// same phase: with fewer workers than shards that work may not have started
// yet. Cross-shard data dependencies belong between steps of a Plan, where
// the barrier orders them.
func (p *Pool) Run(fn func(shard int) error) error {
	p.runStep[0].Phase = fn
	_, err := p.runPlan.Execute()
	p.runStep[0].Phase = nil
	return err
}

// Stop retires the worker goroutines and returns once every one has exited;
// a second call does nothing. The pool must not be used after.
func (p *Pool) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.cur = nil
	p.seq.Add(1)
	p.mu.Unlock()
	p.cond.Broadcast()
	p.exited.Wait()
}
