package serve

import "time"

// This file is the overload brownout: when the estimated queue wait (the
// summed cost estimates of every admitted-but-unfinished engine-bound
// request) crosses a high-water mark, admission enters degraded mode and
// sheds the costliest work first — requests whose own estimated cost exceeds
// the shed threshold get 503 with a Retry-After, while cheap requests and
// memo hits keep being served. Hysteresis (exit at a lower watermark than
// entry) keeps the mode from flapping at the boundary. The state is
// advertised in /healthz and /v1/stats so load balancers can steer.

// The exit watermark and the shed threshold as fractions of the high-water
// mark: leave degraded mode below high/2, shed requests estimated ≥ high/4.
const brownoutExitDivisor, brownoutShedDivisor = 2, 4

// brownout is the degraded-mode state machine, guarded by the server's core
// lock. Enabled when high > 0.
type brownout struct {
	high     time.Duration // enter degraded when queued cost exceeds this
	degraded bool
	stats    *Stats
}

// observe folds the current estimated queue wait into the state machine:
// cross high going up → degraded; fall below the exit watermark → healthy.
// Called on every charge and refund, so the mode tracks the queue without a
// ticker.
func (b *brownout) observe(queued time.Duration) {
	switch {
	case b.high <= 0:
	case b.degraded && queued < b.high/brownoutExitDivisor:
		b.degraded = false
		b.stats.DegradedExits.Add(1)
	case !b.degraded && queued > b.high:
		b.degraded = true
		b.stats.DegradedEnters.Add(1)
	}
}

// sheds reports whether a request with the given estimated cost should be
// shed under the current mode — the costliest-first policy: only work at or
// above the shed threshold is refused, so degraded mode keeps serving the
// cheap majority.
func (b *brownout) sheds(cost time.Duration) bool {
	return b.degraded && cost >= b.high/brownoutShedDivisor
}
