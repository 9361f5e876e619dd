package main

import (
	"fmt"
	"math"
	"runtime"

	"repro/massivefv"
)

// sizes fixes how much work a run does. Operation counts, not durations, are
// fixed, so two commits measured with the same flags do identical work.
type sizes struct {
	setups int // complete set-ups timed per run (the last stays live)
	warm   int // untimed operations before each timed phase
	ops    int // timed operations (serve-mixed: closed-loop iterations)
	probes int // operations per layer probe in the traced run

	fluxDims massivefv.Dims
	fluxApps int

	// The radial mesh of both usolve workloads and serve scenario A.
	rings, sectors, refineEvery int
	usolveSteps                 int

	// serve-mixed's open loop: requests per second and request count.
	openRate float64
	openN    int
}

const (
	// nominalRunSeconds is the --seconds value the default op counts were
	// sized for on the 2-vCPU sizing host (BENCHMARK.json's run_seconds).
	nominalRunSeconds = 16
	// minOps keeps n ≥ 100 wherever a p90 is reported: the 90th percentile of
	// 100 samples has exactly minBeyond samples beyond it.
	minOps = 100
)

// sizesFor scales the timed op counts with --seconds (never below minOps);
// everything else is fixed. traced selects the quarter-length traced run.
func sizesFor(seconds int, traced bool) sizes {
	scale := float64(seconds) / nominalRunSeconds
	ops := int(math.Round(minOps * scale))
	if ops < minOps {
		ops = minOps
	}
	sz := sizes{
		setups: 21, warm: 3, ops: ops, probes: 5,
		fluxDims: massivefv.Dims{Nx: 24, Ny: 24, Nz: 246}, fluxApps: 8,
		rings: 64, sectors: 64, refineEvery: 16, usolveSteps: 2,
		openRate: 10, openN: int(math.Round(100 * math.Max(scale, 1))),
	}
	if traced {
		// A quarter of the ops, each run once untraced and once traced.
		sz.ops = ops / 4
		sz.setups = 5
	}
	return sz
}

const mib = 1 << 20

// repeatSetup times n complete set-ups, each preceded by runtime.GC() and the
// yardstick. Every set-up but the last is torn down again; the last one's
// state stays live for the timed phase.
func repeatSetup(y *yardstick, n int, setup func() (teardown func(), err error)) ([]sample, func(), error) {
	var (
		samples  []sample
		teardown func()
	)
	for i := 0; i < n; i++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC()
		var err error
		s := y.timed(func() { teardown, err = setup() })
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		samples = append(samples, s)
	}
	return samples, teardown, nil
}

// opPhase is a timed phase's outcome: the untraced samples every end-to-end
// metric comes from, and — in a traced run — the samples of the same
// operations repeated with spans open, whose difference is the tracing
// overhead.
type opPhase struct {
	plain, traced []sample
	allocMiBPerOp float64
}

// runOps runs warm untimed operations, then n timed ones, each preceded by
// the yardstick. With a tracer every operation runs twice, untraced then
// traced. op receives a nil tracer for the untraced run and a negative index
// during warm-up; after runs untimed after every timed operation, for checks,
// and is told whether that operation ran traced.
func runOps(y *yardstick, warm, n int, tr *tracer, op func(tr *tracer, i int) error, after func(i int, traced bool)) (*opPhase, error) {
	for i := -warm; i < 0; i++ {
		if err := op(nil, i); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	tracers := []*tracer{nil}
	if tr != nil {
		tracers = append(tracers, tr)
	}
	ph := &opPhase{}
	meter := startAllocMeter()
	executed := 0
	for i := 0; i < n; i++ {
		for _, t := range tracers {
			var err error
			s := y.timed(func() { err = op(t, i) })
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			executed++
			after(i, t != nil)
			if t == nil {
				ph.plain = append(ph.plain, s)
			} else {
				ph.traced = append(ph.traced, s)
			}
		}
	}
	ph.allocMiBPerOp = meter.mibPerOp(executed)
	return ph, nil
}

// allocMeter measures TotalAlloc over a timed phase.
type allocMeter struct{ start uint64 }

func startAllocMeter() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{start: ms.TotalAlloc}
}

// mibPerOp returns MiB allocated since the meter started, per op.
func (a allocMeter) mibPerOp(ops int) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-a.start) / mib / float64(ops)
}

// residentMiB is HeapInuse after a collection, with the caller's engines or
// server still live.
func residentMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / mib
}

// setTimings fills the metrics every workload derives the same way from its
// set-up and op samples. p90 is reported only when the sample supports it.
func setTimings(r *report, setups, ops []sample) {
	r.set("setup_s", median(norms(setups)))
	r.set("host.raw_setup_s", median(raws(setups)))
	n := norms(ops)
	r.set("op_s_p50", median(n))
	if v, ok := percentile(n, 0.9); ok {
		r.set("op_s_p90", v)
	}
	r.set("host.raw_op_s_p50", median(raws(ops)))
}

// setHost fills the host.* metrics from the yardstick's readings.
func setHost(r *report, y *yardstick) {
	r.set("host.nproc", float64(runtime.NumCPU()))
	r.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	r.set("host.yardstick_s_p50", median(y.seen))
	r.set("host.yardstick_iqr_share", iqrShare(y.seen))
}
