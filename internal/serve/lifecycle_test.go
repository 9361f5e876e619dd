package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/umesh"
)

// This file checks the serving core against a sequential reference model.
// The core — begin/admit, the memo, price, submit, entry.enqueue/take/
// complete, resubmit, conclude, finish, release — neither blocks nor starts
// a goroutine, so the test plays both edges itself on a hand-advanced clock:
// it is every handler (parking where a handler would wait) and every engine
// (taking and completing jobs when the interleaving says so). The model
// below re-derives what must happen from the documented policy alone.

const (
	mDepth, mEngines = 6, 2
	mRate, mBurst    = 300.0, 4
)

// mClass is one request class of the workload mix.
type mClass struct {
	name, body string
	steps      int
	memo       bool
	deadline   time.Duration
	invalid    bool // refused at decode
	badWell    bool // refused by the compiled mesh's well bound
}

var mClasses = []mClass{
	{name: "hot", body: testBody(""), steps: 1, memo: true},
	{name: "warm", body: testBody(`"steps":16`), steps: 16, memo: true},
	{name: "short", body: testBody(`"no_memo":true,"wells":[{"cell":1,"rate":1}]`), steps: 1},
	{name: "long", body: testBody(`"no_memo":true,"steps":40`), steps: 40},
	{name: "dated", body: testBody(`"no_memo":true,"steps":12,"deadline_ms":5`), steps: 12, deadline: 5 * time.Millisecond},
	{name: "zero", body: testBody(`"wells":[{"cell":0,"rate":0}]`), invalid: true},
	{name: "far", body: testBody(`"wells":[{"cell":48,"rate":1}]`), steps: 1, memo: true, badWell: true},
}

// ---- the reference model: sequential, lock-free, its own arithmetic ----

// A request's answer is noAnswer until the engines have one for it: their
// verdict, or poolLost when its pool died under it.
const noAnswer, poolLost outcome = -1, -2

type mReq struct {
	id                       int
	c                        mClass
	cost                     int64 // ns, once priced
	enq, due                 time.Time
	leader, follows, retried bool
	answer                   outcome
}

type mPool struct {
	backlog []*mReq // arrival order
	running [mEngines]*mReq
	lost    [mEngines]bool
	perStep float64 // the last completed solve's seconds per step
}

type model struct {
	tokens     float64
	last       time.Time
	draining   bool
	queuedCost int64
	memo       map[string]bool // key → completed (present but false: in flight)
	live       []*mReq         // admitted, not ended
	pools      []*mPool        // the last one is current
	out        map[int]outcome // what the current step ended
	// groups and shared count the memo's single-flight groups: a leader's
	// completed solve that k ≥ 1 followers joined is one group, k shared;
	// priced counts the requests priced above zero.
	groups, shared, priced uint64
}

func (m *model) arrive(now time.Time, r *mReq) {
	if r.c.invalid {
		m.out[r.id] = rejectedInvalid
	} else if m.draining {
		m.out[r.id] = rejectedDraining
	} else if m.tokens, m.last = min(m.tokens+now.Sub(m.last).Seconds()*mRate, mBurst), now; m.tokens < 1 {
		m.out[r.id] = rejectedRate
	} else if m.tokens--; len(m.live) >= mDepth {
		m.out[r.id] = rejectedQueue
	} else {
		r.due = now.Add(r.c.deadline)
		m.live = append(m.live, r)
		m.proceed(now, r)
	}
}

// proceed is everything past admission: memo (hit, follow or lead), price
// (steps × the current pool's last observed seconds per step), queue.
func (m *model) proceed(now time.Time, r *mReq) {
	if done, flying := m.memo[r.c.name]; r.c.memo && done {
		m.end(now, r, completed)
		return
	} else if r.follows = r.c.memo && flying; r.follows {
		return
	} else if r.c.memo {
		m.memo[r.c.name], r.leader = false, true
	}
	r.cost = int64(float64(r.c.steps) * m.pools[len(m.pools)-1].perStep * 1e9)
	if r.cost > 0 {
		m.priced++
	}
	m.queuedCost += r.cost
	m.submit(now, r)
}

// submit queues a priced request on the current pool, which has never lost
// an engine: a panic replaces it.
func (m *model) submit(now time.Time, r *mReq) {
	if r.enq = now; r.c.badWell {
		m.end(now, r, rejectedInvalid)
		return
	}
	p := m.pools[len(m.pools)-1]
	p.backlog = append(p.backlog, r)
	m.shed(now, p)
}

func (m *model) shed(now time.Time, p *mPool) {
	p.backlog = slices.DeleteFunc(p.backlog, func(r *mReq) bool {
		if r.c.deadline == 0 || now.Before(r.due) {
			return false
		}
		r.answer = failed
		return true
	})
}

// take is the oldest live job of the pool, one job per engine; lower idle
// ids go first. -1: engine k takes nothing.
func (m *model) take(now time.Time, p *mPool, k int) int {
	m.shed(now, p)
	if len(p.backlog) == 0 || k == 1 && !p.lost[0] && p.running[0] == nil {
		return -1
	}
	r := p.backlog[0]
	p.backlog = p.backlog[1:]
	p.running[k] = r
	return r.id
}

// complete answers engine k's job — the one request its solve of sec seconds
// answers, whose id it returns. A completed solve prices the pool's next
// requests; a panic loses the engine, replaces a current pool, and — with no
// engine left — answers the backlog poolLost.
func (m *model) complete(p *mPool, k int, o outcome, panicked bool, sec float64) int {
	r := p.running[k]
	r.answer = o
	if o == completed {
		p.perStep = sec / float64(r.c.steps)
	}
	p.running[k], p.lost[k] = nil, panicked
	if panicked && p == m.pools[len(m.pools)-1] {
		m.pools = append(m.pools, &mPool{})
	}
	if p.lost[0] && p.lost[1] {
		for _, r := range p.backlog {
			r.answer = poolLost
		}
		p.backlog = nil
	}
	return r.id
}

// wake is request id's handler reading its answer. One that lost its pool is
// queued again — once, unless draining; any other ends the request: refund,
// record, and a leader settles the memo and sends its followers round again.
func (m *model) wake(now time.Time, id int) {
	r := m.live[slices.IndexFunc(m.live, func(l *mReq) bool { return l.id == id })]
	o := r.answer
	if r.answer = noAnswer; o == poolLost && !r.retried && !m.draining {
		r.retried = true
		m.submit(now, r)
	} else if o == poolLost {
		m.end(now, r, failed)
	} else {
		m.end(now, r, o)
	}
}

func (m *model) end(now time.Time, r *mReq, o outcome) {
	m.queuedCost -= r.cost
	m.out[r.id] = o
	m.live = slices.DeleteFunc(m.live, func(l *mReq) bool { return l == r })
	if !r.leader {
		return
	}
	if m.memo[r.c.name] = true; o != completed {
		delete(m.memo, r.c.name)
	}
	k := uint64(0)
	for _, f := range slices.Clone(m.live) {
		if f.follows && f.c.name == r.c.name {
			k++
			m.proceed(now, f)
		}
	}
	if o == completed && k > 0 {
		m.groups, m.shared = m.groups+1, m.shared+k
	}
}

// ---- the system under test, driven without goroutines ----

// sutReq is one admitted request: the test is its handler.
type sutReq struct {
	id      int
	f       *flight
	j       *job       // queued or running; nil otherwise
	e       *entry     // where j is
	follows *memoEntry // parked on a memo leader
}

type sut struct {
	t     *testing.T
	s     *Server
	pools []*entry
	live  []*sutReq
	out   map[int]outcome
	took  map[*engine]*job
}

// newPool makes a fresh pool the scenario's resident entry — the one price
// reads — as a heal's recompile would.
func (d *sut) newPool() {
	e := newEntry(d.s.cache, testScenario())
	e.cells, e.refs = 48, 0
	for i := 0; i < mEngines; i++ {
		e.engines = append(e.engines, &engine{id: i})
	}
	c := d.s.cache
	c.mu.Lock()
	if len(d.pools) > 0 {
		c.remove(d.pools[len(d.pools)-1])
	}
	c.entries[e.key] = c.lru.PushFront(e)
	c.mu.Unlock()
	d.pools = append(d.pools, e)
}

func (d *sut) arrive(id int, body string, now time.Time) {
	f, rep := d.s.begin(strings.NewReader(body), now)
	if rep != nil {
		d.s.finish(rep.outcome)
		d.out[id] = rep.outcome
		return
	}
	r := &sutReq{id: id, f: f}
	d.live = append(d.live, r)
	d.proceed(r)
}

func (d *sut) proceed(r *sutReq) {
	for !r.f.req.NoMemo && r.f.lead == nil {
		ent, leader := d.s.memo.acquire(r.f.mkey)
		if leader {
			r.f.lead = ent
			break
		}
		select {
		case <-ent.ready:
			if rep := d.s.memoHit(r.f, ent); rep != nil {
				d.end(r, rep)
				return
			}
		default:
			r.follows = ent // a handler would block on ent.ready here
			return
		}
	}
	d.s.price(r.f)
	d.submit(r)
}

func (d *sut) submit(r *sutReq) {
	e := d.pools[len(d.pools)-1]
	e.mu.Lock()
	e.refs++ // cache.acquire's hold
	e.mu.Unlock()
	j, rep := d.s.submit(r.f, e, true)
	if rep != nil {
		e.release()
		d.end(r, d.s.conclude(r.f, jobResult{}, rep))
		return
	}
	r.j, r.e = j, e
}

// deliver plays every handler whose job has been answered — here and, in the
// same order, in the model — until no answer is left unread.
func (d *sut) deliver(m *model, now time.Time) {
	for progress := true; progress; {
		progress = false
		for _, r := range slices.Clone(d.live) {
			if r.j == nil || len(r.j.done) == 0 {
				continue
			}
			j, jr := r.j, <-r.j.done
			r.j, progress = nil, true
			r.e.release()
			m.wake(now, r.id)
			if d.s.resubmit(r.f, j, jr) {
				d.submit(r)
			} else {
				d.end(r, d.s.conclude(r.f, jr, nil))
			}
		}
	}
}

func (d *sut) end(r *sutReq, rep *reply) {
	d.s.finish(rep.outcome)
	d.s.release()
	d.out[r.id] = rep.outcome
	d.live = slices.DeleteFunc(d.live, func(l *sutReq) bool { return l == r })
	for _, w := range slices.Clone(d.live) {
		if r.f.lead != nil && w.follows == r.f.lead {
			w.follows = nil
			d.proceed(w)
		}
	}
}

// owner is the id of the live request whose job j is (-1: none).
func (d *sut) owner(j *job) int {
	for _, r := range d.live {
		if r.j == j {
			return r.id
		}
	}
	return -1
}

// take is an engine's scheduling decision: the id of the request whose job
// engine k took, or -1 when it took none.
func (d *sut) take(e *entry, k int) int {
	e.mu.Lock()
	j := e.take(e.engines[k])
	e.mu.Unlock()
	if j == nil {
		return -1
	}
	d.took[e.engines[k]] = j
	return d.owner(j)
}

// complete is runEngine's tail for a solve of sec seconds — heal before a
// panicked job is failed — and returns the id of the one request the solve
// answered: the test fails unless exactly one job holds an answer from
// engine k.
func (d *sut) complete(e *entry, k int, err error, panicked bool, sec float64) int {
	eng := e.engines[k]
	j := d.took[eng]
	delete(d.took, eng)
	res := &umesh.TransientResult{Pressure: []float64{1, 2, 3}, Steps: make([]umesh.TransientStep, 1)}
	if err != nil {
		res = nil
	}
	if panicked {
		if e.retire(); e == d.pools[len(d.pools)-1] {
			d.newPool()
		}
	}
	e.complete(eng, j, jobResult{res: res, err: err, engine: k, solveSeconds: sec}, panicked)
	var answered []int
	for _, r := range d.live {
		if r.j == nil || len(r.j.done) == 0 {
			continue
		}
		jr := <-r.j.done
		r.j.done <- jr // peek: deliver reads it
		if jr.engine == k {
			answered = append(answered, r.id)
		}
	}
	if len(answered) != 1 || answered[0] != d.owner(j) {
		d.t.Fatalf("engine %d's solve answered requests %v, want exactly its job's (%d)", k, answered, d.owner(j))
	}
	return answered[0]
}

// check asserts the invariants that must hold after every step.
func (d *sut) check(m *model, step string) {
	d.t.Helper()
	if !reflect.DeepEqual(d.out, m.out) {
		d.t.Fatalf("%s: ended %v, model says %v", step, d.out, m.out)
	}
	st := d.s.Stats()
	var priced time.Duration
	for _, r := range d.live {
		priced += r.f.cost
	}
	if d.s.queuedCost != priced || int64(priced) != m.queuedCost {
		d.t.Fatalf("%s: queued cost %v, in-flight estimates sum to %v, model says %v",
			step, d.s.queuedCost, priced, time.Duration(m.queuedCost))
	}
	if len(d.live) == 0 && st.QueuedCostSeconds != 0 {
		d.t.Fatalf("%s: idle queued cost = %g, want exactly 0", step, st.QueuedCostSeconds)
	}
	if d.s.queued != len(d.live) || len(m.live) != len(d.live) || d.s.queued > mDepth {
		d.t.Fatalf("%s: %d queue slots held by %d live requests, model says %d (depth %d)",
			step, d.s.queued, len(d.live), len(m.live), mDepth)
	}
	for _, r := range m.live {
		if r.answer != noAnswer {
			d.t.Fatalf("%s: the model has answered request %d (%d), its handler was never woken", step, r.id, r.answer)
		}
	}
	if st.Requests != ended(st)+uint64(len(d.live)) {
		d.t.Fatalf("%s: %d requests != %d ended + %d in flight", step, st.Requests, ended(st), len(d.live))
	}
	if st.Batches != m.groups || st.SharedSolves != m.shared || st.BatchedRequests != m.groups+m.shared {
		d.t.Fatalf("%s: single-flight groups %d / shared %d / members %d, model says %d / %d / %d",
			step, st.Batches, st.SharedSolves, st.BatchedRequests, m.groups, m.shared, m.groups+m.shared)
	}
	// Every job is in exactly one place: a backlog or an engine, owned by a
	// live request, with no answer delivered behind its back.
	held := map[*job]int{}
	for _, e := range d.pools {
		for _, j := range e.backlog {
			held[j]++
		}
	}
	for _, j := range d.took {
		held[j]++
	}
	owned := 0
	for _, r := range d.live {
		if r.j != nil {
			owned++
			if held[r.j] != 1 || len(r.j.done) != 0 {
				d.t.Fatalf("%s: request %d's job is held %d times with %d answers pending", step, r.id, held[r.j], len(r.j.done))
			}
		}
	}
	if owned != len(held) {
		d.t.Fatalf("%s: %d jobs held by the pools, %d owned by live requests", step, len(held), owned)
	}
}

// TestLifecycleAgainstModel drives the core through seeded interleavings of
// arrivals (a loadgen plan over the class mix), clock advances, engines
// taking jobs, solves completing ok / with a solver error / with a panic (a
// fault plan), and a drain — comparing every step's ended requests,
// queued cost, job custody, single-flight groups, which job each engine took
// and which one request each solve answered with the model.
func TestLifecycleAgainstModel(t *testing.T) {
	var items []loadgen.Item
	for _, c := range mClasses {
		items = append(items, loadgen.Item{Name: c.name, Body: []byte(c.body)})
	}
	seen := map[outcome]int{} // every way a request can end, and how often it did
	var shared, priced uint64
	for seed := int64(1); seed <= 1000; seed++ {
		s, p := runInterleaving(t, seed, items, seen)
		shared, priced = shared+s, priced+p
	}
	for o := completed; o <= rejectedDraining; o++ {
		if seen[o] == 0 {
			t.Errorf("no interleaving ended a request with outcome %d: the mix has gone soft", o)
		}
	}
	if shared == 0 {
		t.Error("no interleaving shared a solve through the memo's single flight")
	}
	if priced == 0 {
		t.Error("no interleaving priced a request above zero")
	}
	t.Logf("outcomes over all interleavings: %v; %d shared solves; %d requests priced above zero", seen, shared, priced)
}

// runInterleaving plays one seeded interleaving and returns the solves its
// requests shared through the memo's single flight and how many of its
// requests were priced above zero.
func runInterleaving(t *testing.T, seed int64, items []loadgen.Item, seen map[outcome]int) (shared, priced uint64) {
	shots, err := loadgen.Plan(loadgen.Spec{Requests: 40, RatePerSec: 400, Seed: seed, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	t0 := clock.Now()
	hook := randomFaultPlan(seed, 24, 6, 0, 4, 0, clock.Now).Hook()
	d := &sut{t: t, took: map[*engine]*job{}, s: New(Options{
		Now: clock.Now, QueueDepth: mDepth, EnginesPerScenario: mEngines,
		RatePerSec: mRate, Burst: mBurst,
	})}
	d.newPool()
	m := &model{tokens: mBurst, last: t0, memo: map[string]bool{}, pools: []*mPool{{}}}
	rng := rand.New(rand.NewSource(seed))

	step := func(name string, op func(now time.Time)) {
		d.out, m.out = map[int]outcome{}, map[int]outcome{}
		op(clock.Now())
		d.deliver(m, clock.Now())
		d.check(m, fmt.Sprintf("seed %d, %s", seed, name))
		for _, o := range d.out {
			seen[o]++
		}
	}
	engineStep := func(p, k int, finish bool) {
		e, mp := d.pools[p], m.pools[p]
		if e.engines[k].lost {
			return // its goroutine has exited
		}
		if d.took[e.engines[k]] == nil {
			step(fmt.Sprintf("pool %d engine %d takes", p, k), func(now time.Time) {
				if got, want := d.take(e, k), m.take(now, mp, k); got != want {
					t.Fatalf("seed %d: pool %d engine %d took request %d, model says %d", seed, p, k, got, want)
				}
			})
		} else if finish {
			sec := float64(1+rng.Intn(50)) * 1e-3
			step(fmt.Sprintf("pool %d engine %d completes in %gs", p, k, sec), func(time.Time) {
				panicked, err := runFault(hook)
				o := completed
				if err != nil {
					o = failed
				}
				if got, want := d.complete(e, k, err, panicked, sec), m.complete(mp, k, o, panicked, sec); got != want {
					t.Fatalf("seed %d: pool %d engine %d's solve answered request %d, model says %d", seed, p, k, got, want)
				}
			})
		}
	}

	next, drainAt := 0, 60+rng.Intn(60)
	for n := 0; next < len(shots); n++ {
		switch op := rng.Intn(10); {
		case n == drainAt:
			step("drain", func(time.Time) {
				d.s.mu.Lock()
				d.s.draining.Store(true)
				d.s.mu.Unlock()
				m.draining = true
			})
		case op < 4:
			shot := shots[next]
			next++
			if at := t0.Add(shot.At); at.After(clock.Now()) {
				clock.Advance(at.Sub(clock.Now()))
			}
			step(fmt.Sprintf("request %d (%s) arrives", shot.Index, mClasses[shot.Item].name), func(now time.Time) {
				d.arrive(shot.Index, mClasses[shot.Item].body, now)
				m.arrive(now, &mReq{id: shot.Index, c: mClasses[shot.Item], answer: noAnswer})
			})
		case op < 5:
			clock.Advance(time.Duration(rng.Intn(8000)) * time.Microsecond)
		default:
			engineStep(rng.Intn(len(d.pools)), rng.Intn(mEngines), op >= 7)
		}
	}
	// Run dry: every engine takes and completes until nothing is in flight.
	for round := 0; len(d.live) > 0; round++ {
		if round > 200 {
			t.Fatalf("seed %d: %d requests still in flight after the engines ran dry", seed, len(d.live))
		}
		for p := range d.pools {
			for k := 0; k < mEngines; k++ {
				engineStep(p, k, true)
			}
		}
	}
	d.s.Drain()
	assertQuiescent(t, d.s)
	return m.shared, m.priced
}

// runFault asks the fault plan what the next solve does.
func runFault(hook func(func() bool) error) (panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked, err = true, fmt.Errorf("serve: engine panicked: %v", r)
		}
	}()
	return false, hook(nil)
}

// serveGoroutines counts the goroutines running serving-layer code, the
// calling test's own aside.
func serveGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "repro/internal/serve.") && !strings.Contains(g, "testing.tRunner") {
			n++
		}
	}
	return n
}

// TestEngineGoroutines pins the serving layer's goroutine budget, calling
// the handler on the test's own goroutine: a resident scenario holds exactly
// one goroutine per engine — no dispatcher — and none outlives Drain. Drain
// returns once every engine goroutine has run its deferred Done, which is a
// moment before that goroutine leaves the stack, so the check after it
// polls, with the same bound as goroutineResidue: a goroutine that leaks
// still fails it.
func TestEngineGoroutines(t *testing.T) {
	defer goroutineResidue(t)()
	s := New(Options{EnginesPerScenario: 3})
	for _, body := range []string{testBody(""), testBody(`"steps":2`)} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	if got := serveGoroutines(); got != 3 {
		t.Errorf("a resident 3-engine scenario holds %d serving goroutines, want 3", got)
	}
	s.Drain()
	for deadline := time.Now().Add(5 * time.Second); serveGoroutines() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d serving goroutines 5 s after Drain, want 0", serveGoroutines())
		}
	}
	assertQuiescent(t, s)
}

// TestTakeOldestFirst pins the selection policy on its own: an engine takes
// one job per pick, the oldest live one, whatever its step count — a job
// past its deadline is shed first — and what stays behind keeps arrival
// order.
func TestTakeOldestFirst(t *testing.T) {
	clock := newFakeClock()
	s := New(Options{Now: clock.Now})
	defer s.Drain()
	e := newEntry(s.cache, testScenario())
	eng := &engine{id: 0}
	e.engines = []*engine{eng}
	var want []*job
	for i, steps := range []int{5, 1, 5, 1, 1} {
		j := &job{req: SolveRequest{Steps: steps}, done: make(chan jobResult, 1)}
		if i == 1 {
			j.deadline = clock.Now().Add(time.Millisecond)
		} else {
			want = append(want, j)
		}
		e.enqueue(j)
	}
	clock.Advance(time.Millisecond) // the 1-step job at index 1 expires
	for i, w := range want {
		e.mu.Lock()
		j := e.take(eng)
		eng.busy = false
		e.mu.Unlock()
		if j != w {
			t.Fatalf("pick %d took a %d-step job out of arrival order", i, j.req.Steps)
		}
	}
	if len(e.backlog) != 0 || s.Stats().SchedDecisions != uint64(len(want)) {
		t.Errorf("%d jobs left behind after %d decisions, want 0 after %d", len(e.backlog), s.Stats().SchedDecisions, len(want))
	}
}

// TestEnqueueOnLostPool pins the one core transition the interleavings above
// cannot reach (their handlers always queue on the resident pool): a handler
// that resolved its entry just before the pool's last engine panicked is
// answered at once with errPoolUnhealthy — the cue for its one resubmit.
func TestEnqueueOnLostPool(t *testing.T) {
	s := New(Options{})
	defer s.Drain()
	e := newEntry(s.cache, testScenario())
	e.engines = []*engine{{id: 0, lost: true}}
	j := &job{done: make(chan jobResult, 1)}
	e.enqueue(j)
	select {
	case jr := <-j.done:
		if !errors.Is(jr.err, errPoolUnhealthy) {
			t.Errorf("enqueue on a lost pool answered %v, want errPoolUnhealthy", jr.err)
		}
	default:
		t.Errorf("enqueue on a lost pool left the job unanswered (%d queued)", len(e.backlog))
	}
}
