package serve

import (
	"container/list"
	"errors"
	"fmt"
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
// request, its batching identity, its deadline (zero = none), and the
// channel its result comes back on (buffered so an engine never blocks
// delivering).
type job struct {
	req        SolveRequest
	payloadKey string
	enqueued   time.Time
	deadline   time.Time
	done       chan jobResult
}

// jobResult is what an engine hands back for one job.
type jobResult struct {
	res          *umesh.TransientResult
	err          error
	engine       int
	batchSize    int
	shared       bool // solved once by a batch-mate, result shared
	solveSeconds float64
}

// engine is one resident compiled solver and its pool state (guarded by the
// entry's mutex): busy while a batch executes on it, lost once a solve on it
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
	// validated against; cost is the scenario's online solve-cost estimate
	// (seeded from the static prior, refined by every solve) that admission
	// prices by and the SJF selection orders by.
	cells int
	cost  *costModel

	// mu guards everything below; cond wakes the engines waiting in next.
	mu      sync.Mutex
	cond    sync.Cond
	engines []*engine
	backlog []*job // arrival order
	refs    int    // in-flight acquires
	retired bool
}

func newEntry(c *cache, scn Scenario) *entry {
	e := &entry{key: scn.Key(), scn: scn.Normalized(), c: c, ready: make(chan struct{}), refs: 1}
	e.cost = newCostModel(e.scn.cellEstimate(), e.scn.Precond)
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
// next batch for eng, or nil when nothing is queued or a lower-id engine is
// idle (the lowest idle id serves, so dispatch is deterministic). Selection
// is selectGroup's: shortest job first with an aging credit, ties by
// arrival, and every queued job with the leader's payload rides along (one
// solve per batch, up to BatchMax) — the backlog is where same-payload
// requests meet while the engines are busy. e.mu held.
func (e *entry) take(eng *engine) []*job {
	e.shedExpired()
	if len(e.backlog) == 0 {
		return nil
	}
	for _, lower := range e.engines[:eng.id] {
		if !lower.busy && !lower.lost {
			return nil
		}
	}
	group, reordered, aged := selectGroup(&e.backlog, e.c.opts.BatchMax, e.cost.estimate, e.c.opts.Now())
	st := e.c.stats
	st.SchedDecisions.Add(1)
	if reordered {
		st.SchedReorders.Add(1)
	}
	if aged {
		st.SchedAgedPicks.Add(1)
	}
	if len(group) > 1 {
		st.Batches.Add(1)
		st.BatchedRequests.Add(uint64(len(group)))
		st.SharedSolves.Add(uint64(len(group) - 1))
	}
	eng.busy = true
	if len(e.backlog) > 0 {
		e.cond.Broadcast() // a higher id that yielded to eng may serve now
	}
	return group
}

// next blocks until eng has a batch to run; nil means the entry retired and
// its last request has left.
func (e *entry) next(eng *engine) []*job {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if batch := e.take(eng); batch != nil {
			return batch
		}
		if e.retired && e.refs == 0 {
			return nil
		}
		e.cond.Wait()
	}
}

// complete fans one solve's result out to its batch and returns the engine
// to the pool — or, after a panic, takes it out for good; when that leaves
// no healthy engine, whatever is queued fails with errPoolUnhealthy.
func (e *entry) complete(eng *engine, batch []*job, r jobResult, panicked bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, j := range batch {
		r.shared = i > 0
		j.done <- r
	}
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

// costOf returns the model a request on scn (keyed key) is priced by: the resident
// entry's (EWMA-refined by every solve), else the static prior a fresh entry
// would start from. It touches neither LRU order nor references.
func (c *cache) costOf(key string, scn Scenario) *costModel {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*entry).cost
	}
	n := scn.Normalized()
	return newCostModel(n.cellEstimate(), n.Precond)
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

// batchCancel builds the cancel hook one engine solve runs under: trip on
// the server-wide force-cancel, or once the batch's latest member deadline
// passes. Batch-mates share one solve, so it runs to the *loosest* deadline
// in the batch — a member without one keeps it unbounded; individually
// expired members were already shed before the batch was taken.
func (c *cache) batchCancel(batch []*job) func() bool {
	var deadline time.Time // the loosest member deadline; zero = unbounded
	for _, j := range batch {
		if j.deadline.IsZero() {
			deadline = time.Time{}
			break
		}
		if j.deadline.After(deadline) {
			deadline = j.deadline
		}
	}
	fc, now := c.forceCancel, c.opts.Now
	return func() bool {
		return fc.Load() || !deadline.IsZero() && !now().Before(deadline)
	}
}

// solveBatch runs one batch's solve under recover(): a panic anywhere in
// the engine (umesh, solver, exec) becomes an error on the batch instead of
// a dead daemon.
func solveBatch(eng *engine, opts umesh.TransientOptions) (res *umesh.TransientResult, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, panicked, err = nil, true, fmt.Errorf("serve: engine %d panicked: %v", eng.id, r)
		}
	}()
	res, err = eng.solver.Solve(opts)
	return res, false, err
}

// runEngine is the engine edge: pull the next batch from the backlog, run
// one Solve for it (panic-isolated, under the batch's cancel hook), fold the
// observed cost into the scenario's estimate, complete the batch. A panic
// ends the engine — after the entry is healed (out of the cache) and before
// the batch is failed, so a resubmitted request never meets the broken pool.
func (c *cache) runEngine(e *entry, eng *engine) {
	defer c.live.Done()
	defer eng.solver.Close()
	for batch := e.next(eng); batch != nil; batch = e.next(eng) {
		lead := batch[0]
		opts := lead.req.transientOptions()
		opts.Cancel = c.batchCancel(batch)
		opts.BeforeSolve = c.opts.SolveHook
		start := c.opts.Now()
		res, panicked, err := solveBatch(eng, opts)
		sec := c.opts.Now().Sub(start).Seconds()
		c.stats.Solves.Add(1)
		c.stats.SolveSecondsTotal.add(sec)
		if err == nil {
			e.cost.observe(sec, lead.req.effectiveSteps())
		}
		if panicked {
			c.stats.EnginePanics.Add(1)
			c.heal(e)
		}
		e.complete(eng, batch, jobResult{res: res, err: err, engine: eng.id, batchSize: len(batch), solveSeconds: sec}, panicked)
		if panicked {
			return
		}
	}
}
