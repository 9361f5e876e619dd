package serve

import (
	"math"
	"slices"
	"sync"
	"time"
)

// This file is the per-scenario job-selection policy an engine takes by:
// shortest-job-first over an online-refined cost estimate, with an aging
// credit so long jobs cannot starve behind a stream of short ones, and a
// deterministic tie-break (arrival order) so replays are stable.

// rungIterationFactor is the preconditioner ladder's relative Krylov
// iteration cost (jacobi ≡ 1): the iteration counts pinned by umesh's
// TestPrecondLadderRecordedIterationCounts (1365 → 795 / 369 / 159 on the
// 15360-cell mesh) as ratios, which TestRungIterationFactor checks. It
// shapes the static cost prior; observed solves refine it away.
func rungIterationFactor(precond string) float64 {
	switch precond {
	case "ssor":
		return 0.58
	case "chebyshev":
		return 0.27
	case "amg":
		return 0.12
	default: // jacobi, and a safe ceiling for anything unknown
		return 1
	}
}

// priorSecondsPerCellFactor converts the static cost shape (cells × rung
// iteration factor) into a seconds prior; the EWMA replaces it after the
// scenario's first observed solve.
const priorSecondsPerCellFactor = 1.5e-5

// agingCostPerWaitSecond is the starvation guard: each second a job has
// waited discounts one second off its estimated cost, so an arbitrarily
// expensive job overtakes cheaper arrivals once its wait exceeds the cost
// difference.
const agingCostPerWaitSecond = 1.0

// ewmaAlpha weights each new solve observation against the running
// estimate.
const ewmaAlpha = 0.3

// costModel is one scenario's online solve-cost estimate: seconds per
// backward-Euler step, seeded from the static shape and refined from
// observed solve seconds with an EWMA.
type costModel struct {
	mu       sync.Mutex
	perStep  float64
	observed bool
}

func newCostModel(cells int, precond string) *costModel {
	return &costModel{perStep: float64(cells) * rungIterationFactor(precond) * priorSecondsPerCellFactor}
}

// estimate is a job's expected solve cost in seconds: per-step seconds ×
// its step count.
func (c *costModel) estimate(steps int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.perStep * float64(steps)
}

// observe folds one measured solve into the estimate. The first observation
// replaces the static prior outright; later ones blend with ewmaAlpha.
func (c *costModel) observe(seconds float64, steps int) {
	if steps <= 0 {
		steps = 1
	}
	per := seconds / float64(steps)
	c.mu.Lock()
	if !c.observed {
		c.perStep, c.observed = per, true
	} else {
		c.perStep = ewmaAlpha*per + (1-ewmaAlpha)*c.perStep
	}
	c.mu.Unlock()
}

// selectGroup removes and returns the next job of a scenario's backlog: the
// one minimizing estimated cost minus the aging credit
// (agingCostPerWaitSecond × seconds waited), preserving the arrival order of
// what stays behind. The backlog is kept in arrival order and strict
// inequality decides the scan, so equal priorities resolve to the earliest
// arrival — the deterministic tie-break. reordered reports that the pick was
// not the oldest job; aged that the aging credit overrode a strictly cheaper
// estimate.
func selectGroup(backlog *[]*job, est func(steps int) float64, now time.Time) (picked *job, reordered, aged bool) {
	b := *backlog
	bestIdx, sjfIdx := 0, 0
	bestPrio, sjfCost := math.Inf(1), math.Inf(1)
	for i, j := range b {
		cost := est(j.req.effectiveSteps())
		prio := cost - agingCostPerWaitSecond*now.Sub(j.enqueued).Seconds()
		if prio < bestPrio {
			bestPrio, bestIdx = prio, i
		}
		if cost < sjfCost {
			sjfCost, sjfIdx = cost, i
		}
	}
	picked = b[bestIdx]
	*backlog = slices.Delete(b, bestIdx, bestIdx+1)
	return picked, bestIdx != 0, bestIdx != sjfIdx
}
