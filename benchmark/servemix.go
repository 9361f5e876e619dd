package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/massivefv"
)

// serveWorkload is serve-mixed: massivefv.NewServer with every option at its
// default behind httptest.NewServer, driven over real loopback HTTP. It is
// the only workload where serve does most of the work; the solver does about
// the share it has in production.
//
// Phase 1 is a sequential closed loop of one client: per iteration the
// yardstick, three memo hits from the primed hot set and one unique-payload
// miss on scenario A — the memo is read beside being written, and hit against
// miss latency separates the request path from the engine. Phase 2 is an open
// loop: a seeded Poisson schedule sent by one dispatcher over persistent
// connections, every request timed from its due time.
type serveWorkload struct {
	sz   sizes
	plan *servePlan

	srv     *serve.Server
	ts      *httptest.Server
	clients []*http.Client
	// coldCompile is scenario A's compile_seconds of every set-up's cold
	// request.
	coldCompile []float64
}

// exchange is one request's outcome as the client saw it.
type exchange struct {
	status     int
	resp       massivefv.ServeResponse
	start, end time.Time
	err        error
}

func (e exchange) seconds() float64 { return e.end.Sub(e.start).Seconds() }

// ok reports an HTTP 200 with a decoded body.
func (e exchange) ok() bool { return e.err == nil && e.status == http.StatusOK }

func (e exchange) problem() string {
	if e.err != nil {
		return e.err.Error()
	}
	return fmt.Sprintf("HTTP %d", e.status)
}

// do sends one request and reads the whole response; the body is decoded
// after the clock stops. With a tracer it opens serve.request around the
// exchange and synthesises the server's share and its stages from the
// response timings: what is left of serve.request is the HTTP client and
// transport, what is left of serve.server is decode, admission, memo and
// encode.
func (w *serveWorkload) do(tr *tracer, client *http.Client, pr plannedRequest, op int) exchange {
	id := tr.begin("serve.request", 0, op)
	ex := exchange{start: time.Now()}
	resp, err := client.Post(w.ts.URL+"/v1/solve", "application/json", bytes.NewReader(pr.Body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		ex.status = resp.StatusCode
	}
	ex.end = time.Now()
	tr.end(id)
	if err != nil {
		ex.err = err
		return ex
	}
	if ex.status == http.StatusOK {
		ex.err = json.Unmarshal(body, &ex.resp)
	}
	if ex.ok() {
		t := ex.resp.Timings
		if kids := tr.children(id, []string{"serve.server"}, []float64{t.TotalSeconds}); kids != nil {
			wait := t.QueueSeconds - t.SolveSeconds // QueueSeconds spans enqueue to solved
			tr.children(kids[0],
				[]string{"serve.compile", "serve.queue", "serve.solve", "serve.render"},
				[]float64{t.CompileSeconds, wait, t.SolveSeconds, t.RenderSeconds})
		}
	}
	return ex
}

// setup is one complete set-up: a server, its listener, the persistent
// client connections, and one cold request per scenario so both scenarios'
// engines are compiled and resident.
func (w *serveWorkload) setup(tr *tracer) (func(), error) {
	w.srv = massivefv.NewServer(massivefv.ServeOptions{})
	w.ts = httptest.NewServer(w.srv.Handler())
	senders := min(openSenders, runtime.NumCPU())
	w.clients = w.clients[:0]
	for i := 0; i < senders; i++ {
		w.clients = append(w.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   time.Minute,
		})
	}
	teardown := func() {
		for _, c := range w.clients {
			c.CloseIdleConnections()
		}
		w.ts.Close()
		w.srv.Drain()
	}
	for i, cold := range w.plan.Cold {
		ex := w.do(tr, w.clients[0], cold, -1)
		if !ex.ok() {
			teardown()
			return nil, fmt.Errorf("cold request on scenario %d: %s", i, ex.problem())
		}
		if i == 0 {
			w.coldCompile = append(w.coldCompile, ex.resp.Timings.CompileSeconds)
		}
	}
	return teardown, nil
}

// sameAnswer reports whether two responses carry the same solve: the memo
// must return exactly what primed it.
func sameAnswer(a, b massivefv.ServeResponse) bool {
	return a.PressureSHA256 == b.PressureSHA256 && a.Iterations == b.Iterations &&
		a.Cells == b.Cells && reflect.DeepEqual(a.Steps, b.Steps)
}

// served is a finished request kept for the checks and the layer numbers.
type served struct {
	pr   plannedRequest
	ex   exchange
	yard float64       // yardstick reading of its closed-loop iteration (0 in the open loop)
	due  time.Time     // open loop only
	late time.Duration // open loop only: send start − due
}

func runServe(seed uint64, sz sizes, tr *tracer) (*report, error) {
	r := newReport("serve-mixed", tr != nil)
	y := newYardstick()
	perIter := 1
	if tr != nil {
		perIter = 2 // every iteration runs untraced, then traced
	}
	w := &serveWorkload{sz: sz, plan: newServePlan(seed, sz, sz.warm+perIter*sz.ops)}

	setups, teardown, err := repeatSetup(y, sz.setups, func() (func(), error) { return w.setup(tr) })
	if err != nil {
		return nil, err
	}
	defer teardown()
	client := w.clients[0]

	// Prime the hot set; each priming response is what its hits must repeat.
	primed := make([]massivefv.ServeResponse, hotSetSize)
	for i, hot := range w.plan.Hot {
		ex := w.do(nil, client, hot, -1)
		if !ex.ok() {
			return nil, fmt.Errorf("priming hot payload %d: %s", i, ex.problem())
		}
		primed[i] = ex.resp
	}
	nextMiss, nextHot := 0, 0
	for ; nextMiss < sz.warm; nextMiss++ {
		if ex := w.do(nil, client, w.plan.Closed[nextMiss], -1); !ex.ok() {
			return nil, fmt.Errorf("warm-up request: %s", ex.problem())
		}
	}

	check := func(s served, what string) bool {
		r.attempted++
		switch {
		case !s.ex.ok():
			r.fail("%s: %s", what, s.ex.problem())
		case s.pr.Class == classHot && s.ex.resp.MemoHit && !sameAnswer(s.ex.resp, primed[s.pr.Hot]):
			r.fail("%s: memo hit differs from the response that primed it", what)
		case s.ex.resp.Cells*len(s.ex.resp.Steps) != s.pr.Work:
			r.fail("%s: %d cells × %d steps, want %d cell updates", what, s.ex.resp.Cells, len(s.ex.resp.Steps), s.pr.Work)
		default:
			return true
		}
		return false
	}

	before := w.srv.Stats()
	meter := startAllocMeter()

	// Phase 1: the sequential closed loop.
	var hits, misses, tracedMisses []served
	iteration := func(t *tracer, i int) {
		yard := y.run()
		for k := 0; k < hitsPerIter; k++ {
			pr := w.plan.Hot[nextHot%hotSetSize]
			nextHot++
			s := served{pr: pr, ex: w.do(t, client, pr, i), yard: yard}
			if check(s, fmt.Sprintf("iteration %d hit", i)) {
				if !s.ex.resp.MemoHit {
					r.fail("iteration %d: hot payload %d was not a memo hit", i, pr.Hot)
				} else if t == nil {
					hits = append(hits, s)
				}
			}
		}
		pr := w.plan.Closed[nextMiss]
		nextMiss++
		s := served{pr: pr, ex: w.do(t, client, pr, i), yard: yard}
		if check(s, fmt.Sprintf("iteration %d miss", i)) {
			if t == nil {
				misses = append(misses, s)
			} else {
				tracedMisses = append(tracedMisses, s)
			}
		}
	}
	for i := 0; i < sz.ops; i++ {
		iteration(nil, i)
		if tr != nil {
			iteration(tr, i)
		}
	}

	// Phase 2: the open loop.
	open, openWall := w.openLoop(tr, sz.ops)
	requests := len(open) + perIter*sz.ops*(hitsPerIter+1)
	r.set("alloc_mb_per_op", meter.mibPerOp(requests))
	r.set("resident_mb", residentMiB())
	after := w.srv.Stats()

	var (
		goodReqs            int
		goodWork            float64
		byClass             [3][]float64
		allLatency, lateSec []float64
		solved              []served // 200s an engine solved, for the oracle sample
	)
	for i, s := range open {
		if !check(s, fmt.Sprintf("open-loop request %d", i)) {
			continue // refused or failed: it misses the limit
		}
		latency := s.ex.end.Sub(s.due)
		if latency <= openLimit {
			goodReqs++
			goodWork += float64(s.pr.Work)
		}
		byClass[s.pr.Class] = append(byClass[s.pr.Class], latency.Seconds())
		allLatency = append(allLatency, latency.Seconds())
		lateSec = append(lateSec, s.late.Seconds())
		if !s.ex.resp.MemoHit {
			solved = append(solved, s)
		}
	}
	solved = append(solved, misses...)

	// Oracle: every oracleSampleMod-th engine-solved 200 must hash like a
	// fresh compile-and-solve of the same request.
	var oneshot []float64
	for i := 0; i < len(solved); i += oracleSampleMod {
		s := solved[i]
		var res *massivefv.UTransientResult
		var err error
		smp := y.timed(func() { res, err = serve.OneShot(s.pr.Req) })
		switch {
		case err != nil:
			r.fail("one-shot oracle: %v", err)
		case serve.PressureHash(res.Pressure) != s.ex.resp.PressureSHA256:
			r.fail("served pressure_sha256 differs from serve.OneShot's (request %s)", s.pr.Body)
		}
		oneshot = append(oneshot, smp.norm())
	}

	if len(misses) == 0 || len(hits) == 0 || len(allLatency) == 0 {
		return r, nil // every request failed; the report says so
	}

	// End-to-end: an operation is one closed-loop miss (the request a user
	// waits on an engine for); cell updates per second is the open loop's
	// goodput in work units.
	var missSamples []sample
	for _, s := range misses {
		missSamples = append(missSamples, sample{raw: s.ex.seconds(), yard: s.yard})
	}
	setTimings(r, setups, missSamples)
	r.set("cell_updates_per_s", goodWork/openWall)
	setHost(r, y)

	setRequestPathMetrics(r, hits, misses)
	r.set("serve.compile_s_cold", median(w.coldCompile))
	setStatsDeltas(r, before, after)

	// The open loop. Percentiles are reported only where the sample supports
	// them.
	r.set("serve.goodput_rps", float64(goodReqs)/openWall)
	r.set("serve.open_hit_p50_s", median(byClass[classHot]))
	r.set("serve.open_miss_p50_s", median(byClass[classUnique]))
	r.set("serve.open_long_p50_s", median(byClass[classLong]))
	if v, ok := percentile(allLatency, 0.9); ok {
		r.set("serve.open_p90_s", v)
	}
	if v, ok := percentile(lateSec, 0.9); ok {
		r.set("gen.lateness_p90_s", v)
	}

	if tr != nil {
		r.set("serve.oneshot_s", median(oneshot))
		var tracedSamples []sample
		for _, s := range tracedMisses {
			tracedSamples = append(tracedSamples, sample{raw: s.ex.seconds(), yard: s.yard})
		}
		setTraceMetrics(r, tr, &opPhase{plain: missSamples, traced: tracedSamples})
	}
	return r, nil
}

// setRequestPathMetrics fills the closed loop's layer numbers: the hit
// latency, what the client sees beyond the server's own total, and the
// stages of the misses — each normalised by its iteration's yardstick.
func setRequestPathMetrics(r *report, hits, misses []served) {
	stage := func(ss []served, f func(served) float64) float64 {
		var out []float64
		for _, s := range ss {
			out = append(out, normalised(f(s), s.yard))
		}
		return median(out)
	}
	all := append(append([]served(nil), hits...), misses...)
	r.set("serve.hit_latency_p50_s", stage(hits, func(s served) float64 { return s.ex.seconds() }))
	r.set("serve.overhead_s_p50", stage(all, func(s served) float64 {
		return s.ex.seconds() - s.ex.resp.Timings.TotalSeconds
	}))
	r.set("serve.queue_s_p50", stage(misses, func(s served) float64 {
		return s.ex.resp.Timings.QueueSeconds - s.ex.resp.Timings.SolveSeconds
	}))
	r.set("serve.solve_s_p50", stage(misses, func(s served) float64 { return s.ex.resp.Timings.SolveSeconds }))
	r.set("serve.render_s_p50", stage(misses, func(s served) float64 { return s.ex.resp.Timings.RenderSeconds }))
	iters := 0
	for _, s := range misses {
		iters += s.ex.resp.Iterations
	}
	r.set("solver.iterations_per_op", float64(iters)/float64(len(misses)))
}

// setStatsDeltas fills the server's own counters over both timed phases.
func setStatsDeltas(r *report, before, after massivefv.ServeStats) {
	r.set("serve.memo_hit_ratio", float64(after.MemoHits-before.MemoHits)/float64(after.Requests-before.Requests))
	if lookups := float64(after.CacheHits - before.CacheHits + after.CacheMisses - before.CacheMisses); lookups > 0 {
		r.set("serve.cache_hit_ratio", float64(after.CacheHits-before.CacheHits)/lookups)
	}
	// Batches counts multi-request groups only.
	if batches := float64(after.Batches - before.Batches); batches > 0 {
		r.set("serve.batch_size_mean", float64(after.BatchedRequests-before.BatchedRequests)/batches)
	}
	r.set("serve.shared_solves", float64(after.SharedSolves-before.SharedSolves))
	r.set("serve.sched_reorders", float64(after.SchedReorders-before.SchedReorders))
	r.set("serve.solves", float64(after.Solves-before.Solves))
	rejected := func(s massivefv.ServeStats) uint64 {
		return s.RejectedRate + s.RejectedQueue + s.RejectedDraining + s.RejectedInvalid + s.RejectedDegraded
	}
	r.set("serve.rejected_total", float64(rejected(after)-rejected(before)))
}

// openLoop sends the plan's open-loop requests on schedule: one dispatcher
// waits for each due time and hands the request to whichever sender is free,
// so a stall delays the requests behind it — and since latency counts from
// the due time, that wait is counted. Span op ids continue from firstOp. It
// returns every request's outcome and the seconds from the schedule's start to
// the last response.
func (w *serveWorkload) openLoop(tr *tracer, firstOp int) ([]served, float64) {
	out := make([]served, len(w.plan.Open))
	start := time.Now().Add(20 * time.Millisecond)
	work := make(chan int) // unbuffered: a request leaves the dispatcher only when a sender takes it
	var wg sync.WaitGroup
	for _, client := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				pr := w.plan.Open[i]
				due := start.Add(pr.Due)
				sent := time.Now()
				out[i] = served{pr: pr, ex: w.do(tr, client, pr, firstOp+i), due: due, late: sent.Sub(due)}
			}
		}()
	}
	for i, pr := range w.plan.Open {
		time.Sleep(time.Until(start.Add(pr.Due)))
		work <- i
	}
	close(work)
	wg.Wait()
	last := start
	for _, s := range out {
		if s.ex.end.After(last) {
			last = s.ex.end
		}
	}
	return out, last.Sub(start).Seconds()
}
