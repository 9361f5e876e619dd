package serve

import (
	"cmp"
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

	"repro/internal/faultinject"
	"repro/internal/loadgen"
	"repro/internal/umesh"
)

// This file checks the serving core against a sequential reference model.
// The core — begin/admit, the memo, price, submit, entry.enqueue/take/
// complete, resubmit, conclude, finish, release — neither blocks nor starts
// a goroutine, so the test plays both edges itself on a hand-advanced clock:
// it is every handler (parking where a handler would wait) and every engine
// (taking and completing batches when the interleaving says so). The model
// below re-derives what must happen from the documented policy alone.

const (
	mDepth, mBatchMax, mEngines = 6, 3, 2
	mRate, mBurst               = 300.0, 4
	mHigh                       = 40 * time.Millisecond // brownout high-water mark
)

// mPerStep is the static cost prior of the 48-cell jacobi test scenario in
// seconds per step; nothing in this test observes a solve, so it never moves.
var mPerStep = float64(48) * rungIterationFactor("jacobi") * priorSecondsPerCellFactor

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
	running [mEngines][]*mReq
	lost    [mEngines]bool
}

type model struct {
	tokens             float64
	last               time.Time
	draining, degraded bool
	queuedCost         int64
	memo               map[string]bool // key → completed (present but false: in flight)
	live               []*mReq         // admitted, not ended
	pools              []*mPool        // the last one is current
	out                map[int]outcome // what the current step ended
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
// (shed the costly while degraded), queue.
func (m *model) proceed(now time.Time, r *mReq) {
	if done, flying := m.memo[r.c.name]; r.c.memo && done {
		m.end(now, r, completed)
		return
	} else if r.follows = r.c.memo && flying; r.follows {
		return
	} else if r.c.memo {
		m.memo[r.c.name], r.leader = false, true
	}
	if cost := int64(mPerStep * float64(r.c.steps) * 1e9); m.degraded && cost >= int64(mHigh)/4 {
		m.end(now, r, rejectedDegraded)
	} else {
		r.cost = cost
		m.charge(cost)
		m.submit(now, r)
	}
}

// charge moves the queued cost and, with it, the brownout mode: enter above
// the high-water mark, leave below half of it.
func (m *model) charge(d int64) {
	m.queuedCost += d
	if m.degraded && m.queuedCost < int64(mHigh)/2 || !m.degraded && m.queuedCost > int64(mHigh) {
		m.degraded = !m.degraded
	}
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

// take is SJF with aging: lowest cost − wait leads (ties: earliest arrival),
// same-class jobs ride along up to the batch bound; lower idle ids go first.
func (m *model) take(now time.Time, p *mPool, k int) []*mReq {
	m.shed(now, p)
	if len(p.backlog) == 0 || k == 1 && !p.lost[0] && p.running[0] == nil {
		return nil
	}
	prio := func(r *mReq) float64 { return mPerStep*float64(r.c.steps) - now.Sub(r.enq).Seconds() }
	lead := slices.MinFunc(p.backlog, func(a, b *mReq) int { return cmp.Compare(prio(a), prio(b)) })
	batch, rest := []*mReq{lead}, []*mReq(nil)
	for _, r := range p.backlog {
		if r != lead && r.c.name == lead.c.name && len(batch) < mBatchMax {
			batch = append(batch, r)
		} else if r != lead {
			rest = append(rest, r)
		}
	}
	p.backlog, p.running[k] = rest, batch
	return batch
}

// complete answers engine k's batch; a panic loses the engine, replaces a
// current pool, and — with no engine left — answers the backlog poolLost.
func (m *model) complete(p *mPool, k int, o outcome, panicked bool) {
	for _, r := range p.running[k] {
		r.answer = o
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
	m.charge(-r.cost)
	m.out[r.id] = o
	m.live = slices.DeleteFunc(m.live, func(l *mReq) bool { return l == r })
	if !r.leader {
		return
	}
	if m.memo[r.c.name] = true; o != completed {
		delete(m.memo, r.c.name)
	}
	for _, f := range slices.Clone(m.live) {
		if f.follows && f.c.name == r.c.name {
			m.proceed(now, f)
		}
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
	took  map[*engine][]*job
}

func (d *sut) newPool() {
	e := newEntry(d.s.cache, testScenario())
	e.cells, e.refs = 48, 0
	for i := 0; i < mEngines; i++ {
		e.engines = append(e.engines, &engine{id: i})
	}
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
	if rep := d.s.price(r.f); rep != nil {
		d.end(r, d.s.conclude(r.f, jobResult{}, rep))
		return
	}
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

func (d *sut) take(e *entry, k int) (ids []int) {
	e.mu.Lock()
	batch := e.take(e.engines[k])
	e.mu.Unlock()
	if batch == nil {
		return nil
	}
	d.took[e.engines[k]] = batch
	for _, j := range batch {
		for _, r := range d.live {
			if r.j == j {
				ids = append(ids, r.id)
			}
		}
	}
	return ids
}

// complete is runEngine's tail: heal before a panicked batch is failed.
func (d *sut) complete(e *entry, k int, err error, panicked bool) {
	eng := e.engines[k]
	batch := d.took[eng]
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
	e.complete(eng, batch, jobResult{res: res, err: err, engine: k, batchSize: len(batch)}, panicked)
}

// check asserts the invariants that must hold after every step.
func (d *sut) check(m *model, step string) {
	d.t.Helper()
	if !reflect.DeepEqual(d.out, m.out) {
		d.t.Fatalf("%s: ended %v, model says %v", step, d.out, m.out)
	}
	st := d.s.Stats()
	if st.Degraded != m.degraded {
		d.t.Fatalf("%s: degraded = %v, model says %v", step, st.Degraded, m.degraded)
	}
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
	// Every job is in exactly one place: a backlog or a running batch, owned
	// by a live request, with no answer delivered behind its back.
	held := map[*job]int{}
	for _, e := range d.pools {
		for _, j := range e.backlog {
			held[j]++
		}
	}
	for _, batch := range d.took {
		for _, j := range batch {
			held[j]++
		}
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
// taking batches, batches completing ok / with a solver error / with a
// panic (a faultinject plan), and a drain — comparing every step's ended
// requests, brownout mode, queued cost and job custody with the model.
func TestLifecycleAgainstModel(t *testing.T) {
	var items []loadgen.Item
	for _, c := range mClasses {
		items = append(items, loadgen.Item{Name: c.name, Body: []byte(c.body)})
	}
	seen := map[outcome]int{} // every way a request can end, and how often it did
	for seed := int64(1); seed <= 1000; seed++ {
		runInterleaving(t, seed, items, seen)
	}
	for o := completed; o <= rejectedDegraded; o++ {
		if seen[o] == 0 {
			t.Errorf("no interleaving ended a request with outcome %d: the mix has gone soft", o)
		}
	}
	t.Logf("outcomes over all interleavings: %v", seen)
}

func runInterleaving(t *testing.T, seed int64, items []loadgen.Item, seen map[outcome]int) {
	shots, err := loadgen.Plan(loadgen.Spec{Requests: 40, RatePerSec: 400, Seed: seed, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	t0 := clock.Now()
	hook := faultinject.RandomPlan(seed, 24, 6, 0, 4, 0, clock.Now).Hook()
	d := &sut{t: t, took: map[*engine][]*job{}, s: New(Options{
		Now: clock.Now, QueueDepth: mDepth, BatchMax: mBatchMax, EnginesPerScenario: mEngines,
		RatePerSec: mRate, Burst: mBurst, BrownoutHighSeconds: mHigh.Seconds(),
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
				var want []int
				for _, r := range m.take(now, mp, k) {
					want = append(want, r.id)
				}
				if got := d.take(e, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: pool %d engine %d took %v, model says %v", seed, p, k, got, want)
				}
			})
		} else if finish {
			step(fmt.Sprintf("pool %d engine %d completes", p, k), func(time.Time) {
				panicked, err := runFault(hook)
				o := completed
				if err != nil {
					o = failed
				}
				d.complete(e, k, err, panicked)
				m.complete(mp, k, o, panicked)
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
// one goroutine per engine — no dispatcher — and Drain returns only once
// they are all gone.
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
	if got := serveGoroutines(); got != 0 {
		t.Errorf("%d serving goroutines right after Drain, want 0", got)
	}
	assertQuiescent(t, s)
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
