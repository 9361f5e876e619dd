package serve

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/solver"
	"repro/internal/umesh"
)

// errPoolUnhealthy marks a job that was queued behind an engine panic: the
// pool it was waiting on is gone (retired, recompiling in the background).
// The handler resubmits such jobs once to the healed pool instead of failing
// them — collateral of a panic is a retry, not an error.
var errPoolUnhealthy = errors.New("serve: engine pool lost to a panic")

// job is one admitted solve request travelling through the queue: the
// request, its deadline (zero = none), and the channel its result comes back
// on (buffered so an engine never blocks delivering).
type job struct {
	req      SolveRequest
	enqueued time.Time
	deadline time.Time
	done     chan jobResult
}

// jobResult is what an engine hands back for its job.
type jobResult struct {
	res          *umesh.TransientResult
	err          error
	engine       int
	solveSeconds float64
}

// engine is one resident compiled solver and its pool state (guarded by the
// entry's mutex): busy while a job executes on it, lost once a solve on it
// panicked — a lost engine never takes work again.
type engine struct {
	id         int
	solver     *umesh.TransientSolver
	busy, lost bool
}

// entry is one cached scenario: the compiled shared state, a pool of
// resident engines, and the backlog they pull from. Lifecycle: created
// under the cache lock with ready open; the creating request compiles
// outside the lock and closes ready; once retired (eviction, heal or cache
// close) and released by its last request, the engines exit and release
// their compiled solvers.
type entry struct {
	key string
	scn Scenario
	c   *cache

	ready          chan struct{} // closed once compiled (err set on failure)
	err            error
	compileSeconds float64

	// cells is the compiled mesh's real cell count — what well indices are
	// validated against.
	cells int

	// mu guards everything below; cond wakes the engines waiting in next.
	mu      sync.Mutex
	cond    sync.Cond
	engines []*engine
	backlog []*job // arrival order
	refs    int    // in-flight acquires
	retired bool
	// perStep is the last successful solve's seconds per step (0 before the
	// first): what a request on this scenario is priced at, per step.
	perStep float64
}

func newEntry(c *cache, scn Scenario) *entry {
	e := &entry{key: scn.Key(), scn: scn.Normalized(), c: c, ready: make(chan struct{}), refs: 1}
	e.cond.L = &e.mu
	return e
}

// release drops one acquire's reference; the last one out of a retired
// entry lets its engines exit.
func (e *entry) release() {
	e.mu.Lock()
	e.refs--
	if e.retired && e.refs == 0 {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// retire marks the entry as leaving the cache: its engines exit as soon as
// no request holds it. Callers account the reason themselves (eviction vs
// heal).
func (e *entry) retire() {
	e.mu.Lock()
	e.retired = true
	e.mu.Unlock()
	e.cond.Broadcast()
}

// enqueue puts a job on the scenario's backlog and wakes the engines. A pool
// with no healthy engine fails it at once with errPoolUnhealthy, and a job
// already past its deadline is shed; the answer always arrives on j.done.
func (e *entry) enqueue(j *job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.healthy() {
		j.done <- e.poolLost()
		return
	}
	e.backlog = append(e.backlog, j)
	e.shedExpired()
	e.cond.Broadcast()
}

func (e *entry) healthy() bool {
	for _, eng := range e.engines {
		if !eng.lost {
			return true
		}
	}
	return false
}

func (e *entry) poolLost() jobResult {
	return jobResult{engine: -1, err: fmt.Errorf("%w (scenario %s, recompiling)", errPoolUnhealthy, e.key)}
}

// shedExpired answers every queued job whose deadline has passed: 504 with
// zero iterations, and no engine time spent.
func (e *entry) shedExpired() {
	now := e.c.opts.Now()
	live := e.backlog[:0]
	for _, j := range e.backlog {
		if !j.deadline.IsZero() && !now.Before(j.deadline) {
			j.done <- jobResult{engine: -1, err: fmt.Errorf("serve: deadline expired while queued: %w", solver.ErrCancelled)}
			continue
		}
		live = append(live, j)
	}
	e.backlog = live
}

// take is the scheduling decision, made by the engine that will run it: the
// oldest live job for eng, or nil when nothing is queued or a lower-id
// engine is idle (the lowest idle id serves, so dispatch is deterministic).
// e.mu held.
func (e *entry) take(eng *engine) *job {
	e.shedExpired()
	if len(e.backlog) == 0 {
		return nil
	}
	for _, lower := range e.engines[:eng.id] {
		if !lower.busy && !lower.lost {
			return nil
		}
	}
	j := e.backlog[0]
	e.backlog = slices.Delete(e.backlog, 0, 1)
	e.c.stats.SchedDecisions.Add(1)
	eng.busy = true
	if len(e.backlog) > 0 {
		e.cond.Broadcast() // a higher id that yielded to eng may serve now
	}
	return j
}

// next blocks until eng has a job to run; nil means the entry retired and
// its last request has left.
func (e *entry) next(eng *engine) *job {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if j := e.take(eng); j != nil {
			return j
		}
		if e.retired && e.refs == 0 {
			return nil
		}
		e.cond.Wait()
	}
}

// complete answers one solve's job and returns the engine to the pool — or,
// after a panic, takes it out for good; when that leaves no healthy engine,
// whatever is queued fails with errPoolUnhealthy. A successful solve sets
// the scenario's price per step.
func (e *entry) complete(eng *engine, j *job, r jobResult, panicked bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.err == nil {
		e.perStep = r.solveSeconds / float64(j.req.effectiveSteps())
	}
	j.done <- r
	eng.busy, eng.lost = false, panicked
	if !e.healthy() {
		for _, j := range e.backlog {
			j.done <- e.poolLost()
		}
		e.backlog = nil
	}
}

// cache is the scenario cache: an LRU of compiled entries keyed by the
// canonical scenario hash. A hit hands back an entry whose engines are
// already compiled — the request skips straight to the queue; a miss
// compiles a new entry (possibly evicting the least-recently-used one) and
// charges the compile time to the missing request.
type cache struct {
	opts  Options // the server's, defaults resolved
	stats *Stats
	// forceCancel, once set (DrainWithin past its bound), trips every
	// solve's cancel hook regardless of deadlines.
	forceCancel *atomic.Bool

	mu      sync.Mutex
	entries map[string]*list.Element // value: *entry
	lru     *list.List               // front = most recently used
	closed  bool
	// live counts the cache's goroutines — one per engine, plus a heal's
	// recompile — for close to wait on. Engines start inside acquire; close
	// runs after every request's acquire has returned (Drain waits) while a
	// heal's holds its own count, so no Add races the Wait from zero.
	live sync.WaitGroup
}

func newCache(opts Options, stats *Stats, forceCancel *atomic.Bool) *cache {
	return &cache{opts: opts, stats: stats, forceCancel: forceCancel,
		entries: make(map[string]*list.Element), lru: list.New()}
}

// acquire resolves a scenario to a live entry, compiling on miss. The
// caller must release the entry once its job has completed (or failed); hit
// reports whether the compiled engines were already resident.
func (c *cache) acquire(scn Scenario) (e *entry, hit bool, err error) {
	key := scn.Key()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, fmt.Errorf("serve: cache is closed")
	}
	if el, ok := c.entries[key]; ok {
		e = el.Value.(*entry)
		c.lru.MoveToFront(el)
		e.mu.Lock()
		e.refs++
		e.mu.Unlock()
		c.mu.Unlock()
		<-e.ready // compiled by the missing request (usually long closed)
		if e.err != nil {
			e.release()
			return nil, true, e.err
		}
		c.stats.CacheHits.Add(1)
		return e, true, nil
	}
	e = newEntry(c, scn)
	c.entries[key] = c.lru.PushFront(e)
	if c.lru.Len() > c.opts.CacheCapacity {
		c.remove(c.lru.Back().Value.(*entry)).retire()
		c.stats.Evictions.Add(1)
	}
	c.mu.Unlock()
	c.stats.CacheMisses.Add(1)

	// Compile outside the lock: concurrent requests for other scenarios
	// proceed, concurrent requests for this one block on ready.
	start := c.opts.Now()
	e.err = c.compileEntry(e)
	e.compileSeconds = c.opts.Now().Sub(start).Seconds()
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		c.remove(e)
		c.mu.Unlock()
		return nil, false, e.err
	}
	return e, false, nil
}

// remove takes e out of the map and the LRU if it is still the resident
// entry for its key, and returns it (nil otherwise). c.mu held.
func (c *cache) remove(e *entry) *entry {
	el, ok := c.entries[e.key]
	if !ok || el.Value.(*entry) != e {
		return nil
	}
	c.lru.Remove(el)
	delete(c.entries, e.key)
	return e
}

// compileEntry builds the entry's shared state and engine pool and starts
// the engines.
func (c *cache) compileEntry(e *entry) error {
	comp, err := e.scn.compile()
	if err != nil {
		return err
	}
	e.cells = comp.u.NumCells
	for i := 0; i < c.opts.EnginesPerScenario; i++ {
		s, err := comp.newSolver()
		if err != nil {
			for _, eng := range e.engines {
				eng.solver.Close()
			}
			return err
		}
		e.engines = append(e.engines, &engine{id: i, solver: s})
	}
	for _, eng := range e.engines {
		c.live.Add(1)
		go c.runEngine(e, eng)
	}
	return nil
}

// heal is the panic recovery path: the broken entry leaves the cache (so
// new acquires compile a fresh pool) and retires, and — on the first panic
// of a resident entry, unless the cache is closing — a background goroutine
// recompiles the scenario so the next request finds warm engines again.
func (c *cache) heal(e *entry) {
	c.mu.Lock()
	recompile := c.remove(e) != nil && !c.closed
	if recompile {
		c.live.Add(1)
	}
	c.mu.Unlock()
	e.retire()
	if !recompile {
		return
	}
	go func() {
		defer c.live.Done()
		if fresh, _, err := c.acquire(e.scn); err == nil {
			fresh.release()
			c.stats.EngineRestarts.Add(1)
		}
	}()
}

// secondsPerStep is what a request on the scenario keyed key is priced at,
// per step: the resident entry's last observed solve, else 0. It touches
// neither LRU order nor references.
func (c *cache) secondsPerStep(key string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return 0
	}
	e := el.Value.(*entry)
	e.mu.Lock()
	perStep := e.perStep
	e.mu.Unlock()
	return perStep
}

// close retires every entry and waits for every engine — of resident,
// evicted and healed entries alike — to stop.
func (c *cache) close() {
	c.mu.Lock()
	c.closed = true
	for el := c.lru.Front(); el != nil; el = el.Next() {
		c.stats.Evictions.Add(1)
		el.Value.(*entry).retire()
	}
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
	c.mu.Unlock()
	c.live.Wait()
}

// size reports the resident scenario count.
func (c *cache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// cancelHook builds the cancel hook one engine solve runs under: trip on the
// server-wide force-cancel, or once the job's deadline passes.
func (c *cache) cancelHook(j *job) func() bool {
	fc, now, deadline := c.forceCancel, c.opts.Now, j.deadline
	return func() bool {
		return fc.Load() || !deadline.IsZero() && !now().Before(deadline)
	}
}

// solveJob runs one job's solve under recover(): a panic anywhere in the
// engine (umesh, solver, exec) becomes an error on the job instead of a dead
// daemon.
func solveJob(eng *engine, opts umesh.TransientOptions) (res *umesh.TransientResult, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, panicked, err = nil, true, fmt.Errorf("serve: engine %d panicked: %v", eng.id, r)
		}
	}()
	res, err = eng.solver.Solve(opts)
	return res, false, err
}

// runEngine is the engine edge: pull the next job from the backlog, run one
// Solve for it (panic-isolated, under the job's cancel hook), complete the
// job with its measured seconds. A panic ends the engine — after the entry
// is healed (out of the cache) and before the job is failed, so a
// resubmitted request never meets the broken pool.
func (c *cache) runEngine(e *entry, eng *engine) {
	defer c.live.Done()
	defer eng.solver.Close()
	for j := e.next(eng); j != nil; j = e.next(eng) {
		opts := j.req.transientOptions()
		opts.Solver.Cancel = c.cancelHook(j)
		opts.BeforeSolve = c.opts.SolveHook
		start := c.opts.Now()
		res, panicked, err := solveJob(eng, opts)
		sec := c.opts.Now().Sub(start).Seconds()
		c.stats.Solves.Add(1)
		c.stats.SolveSecondsTotal.add(sec)
		if panicked {
			c.stats.EnginePanics.Add(1)
			c.heal(e)
		}
		e.complete(eng, j, jobResult{res: res, err: err, engine: eng.id, solveSeconds: sec}, panicked)
		if panicked {
			return
		}
	}
}
