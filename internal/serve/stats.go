package serve

import (
	"math"
	"sync/atomic"
)

// atomicSeconds accumulates float64 seconds with a CAS loop, so hot-path
// timing never takes a lock.
type atomicSeconds struct {
	bits atomic.Uint64
}

func (a *atomicSeconds) add(sec float64) {
	for {
		old := a.bits.Load()
		cur := math.Float64frombits(old)
		if a.bits.CompareAndSwap(old, math.Float64bits(cur+sec)) {
			return
		}
	}
}

func (a *atomicSeconds) load() float64 { return math.Float64frombits(a.bits.Load()) }

// Stats is the serving layer's counter block. Everything is atomic: the
// handlers, the admission gate, the cache and the engines all bump it
// concurrently, and /v1/stats snapshots it without stopping the world.
type Stats struct {
	// Request accounting is one conservation law. Every POST /v1/solve
	// increments Requests on arrival and exactly one terminal counter —
	// Completed, Failed or one of the four Rejected* — in Server.finish, the
	// only place they are written, before its queue slot is released. So
	// whenever no request is in flight (and always after Drain):
	//
	//	Requests == Completed + Failed + ΣRejected*
	//
	// Admitted is not a term of the law: it counts requests that passed
	// admission (drain flag, token bucket, queue depth) and took a queue
	// slot, whatever became of them afterwards.
	Requests         atomic.Uint64
	Admitted         atomic.Uint64
	RejectedRate     atomic.Uint64 // token bucket empty → 429
	RejectedQueue    atomic.Uint64 // bounded queue full → 429
	RejectedDraining atomic.Uint64 // drain in progress → 503
	RejectedInvalid  atomic.Uint64 // bad JSON / scenario / wells / steps → 400
	Completed        atomic.Uint64
	Failed           atomic.Uint64

	// Failure-domain accounting: EnginePanics counts solves that panicked
	// (recovered, engine marked unhealthy); EngineRestarts background
	// recompiles that brought a panicked scenario back; CancelledSolves
	// requests that 504'd (deadline or forced drain); SolverErrors requests
	// that 422'd (Krylov breakdown / not converged).
	EnginePanics    atomic.Uint64
	EngineRestarts  atomic.Uint64
	CancelledSolves atomic.Uint64
	SolverErrors    atomic.Uint64

	// Scenario cache accounting.
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64
	Evictions   atomic.Uint64

	// Result-memo accounting: MemoHits counts responses served from the
	// result memo (completed or by joining an in-flight leader's solve)
	// without an engine solve of their own.
	MemoHits atomic.Uint64

	// SchedDecisions counts the jobs engines took off a backlog.
	SchedDecisions atomic.Uint64

	// Shared-solve accounting: Solves counts engine solves, each of which
	// answered exactly one request. Batches/BatchedRequests/SharedSolves
	// count multi-request groups whose members shared one solve — the memo's
	// single flight: a leader whose published solve k ≥ 1 followers joined
	// in flight is one group of k+1 requests and k shared solves. So
	// Completed == Solves + MemoHits whenever no request fails.
	Solves          atomic.Uint64
	Batches         atomic.Uint64
	BatchedRequests atomic.Uint64
	SharedSolves    atomic.Uint64

	// Accumulated request-phase wall-clock (seconds across all requests).
	QueueSecondsTotal   atomicSeconds
	CompileSecondsTotal atomicSeconds
	SolveSecondsTotal   atomicSeconds
	RenderSecondsTotal  atomicSeconds
}

// StatsSnapshot is the JSON form of the counters — the /v1/stats response
// body.
type StatsSnapshot struct {
	Requests         uint64 `json:"requests"`
	Admitted         uint64 `json:"admitted"`
	RejectedRate     uint64 `json:"rejected_rate"`
	RejectedQueue    uint64 `json:"rejected_queue"`
	RejectedDraining uint64 `json:"rejected_draining"`
	RejectedInvalid  uint64 `json:"rejected_invalid"`
	// RejectedDegraded is always 0; it stays because the repository
	// benchmark sums it into serve.rejected_total.
	RejectedDegraded uint64 `json:"rejected_degraded"`
	Completed        uint64 `json:"completed"`
	Failed           uint64 `json:"failed"`

	EnginePanics    uint64 `json:"engine_panics"`
	EngineRestarts  uint64 `json:"engine_restarts"`
	CancelledSolves uint64 `json:"cancelled_solves"`
	SolverErrors    uint64 `json:"solver_errors"`

	// QueuedCostSeconds is the estimated queue wait: the summed prices of
	// the requests in flight, exactly 0 once idle.
	QueuedCostSeconds float64 `json:"queued_cost_seconds"`

	CacheHits         uint64 `json:"cache_hits"`
	CacheMisses       uint64 `json:"cache_misses"`
	Evictions         uint64 `json:"evictions"`
	ResidentScenarios int    `json:"resident_scenarios"`

	MemoHits    uint64 `json:"memo_hits"`
	MemoEntries int    `json:"memo_entries"`

	SchedDecisions uint64 `json:"sched_decisions"`
	// SchedReorders is always 0: the backlog is served in arrival order.
	SchedReorders uint64 `json:"sched_reorders"`

	Solves          uint64 `json:"solves"`
	Batches         uint64 `json:"batches"`
	BatchedRequests uint64 `json:"batched_requests"`
	SharedSolves    uint64 `json:"shared_solves"`

	QueueSecondsTotal   float64 `json:"queue_seconds_total"`
	CompileSecondsTotal float64 `json:"compile_seconds_total"`
	SolveSecondsTotal   float64 `json:"solve_seconds_total"`
	RenderSecondsTotal  float64 `json:"render_seconds_total"`
}

// snapshot captures the counters.
func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Requests:         s.Requests.Load(),
		Admitted:         s.Admitted.Load(),
		RejectedRate:     s.RejectedRate.Load(),
		RejectedQueue:    s.RejectedQueue.Load(),
		RejectedDraining: s.RejectedDraining.Load(),
		RejectedInvalid:  s.RejectedInvalid.Load(),
		Completed:        s.Completed.Load(),
		Failed:           s.Failed.Load(),

		EnginePanics:    s.EnginePanics.Load(),
		EngineRestarts:  s.EngineRestarts.Load(),
		CancelledSolves: s.CancelledSolves.Load(),
		SolverErrors:    s.SolverErrors.Load(),

		CacheHits:   s.CacheHits.Load(),
		CacheMisses: s.CacheMisses.Load(),
		Evictions:   s.Evictions.Load(),

		MemoHits: s.MemoHits.Load(),

		SchedDecisions: s.SchedDecisions.Load(),

		Solves:          s.Solves.Load(),
		Batches:         s.Batches.Load(),
		BatchedRequests: s.BatchedRequests.Load(),
		SharedSolves:    s.SharedSolves.Load(),

		QueueSecondsTotal:   s.QueueSecondsTotal.load(),
		CompileSecondsTotal: s.CompileSecondsTotal.load(),
		SolveSecondsTotal:   s.SolveSecondsTotal.load(),
		RenderSecondsTotal:  s.RenderSecondsTotal.load(),
	}
}
