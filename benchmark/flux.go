package main

import (
	"fmt"
	"math"

	"repro/massivefv"
)

// fluxTolerance is the float32 tolerance internal/core/core_test.go holds the
// dataflow engines to against the float64 reference: the largest absolute
// difference, as a share of the largest reference magnitude.
const fluxTolerance = 2e-3

// fluxWorkload is flux-structured, the paper's kernel: a mesh with one
// 246-deep column per PE, the 10-face TPFA with diagonals, on the sharded flat
// engine at Workers=1 (inline plan). core and dsd do all the work; umesh,
// solver and serve do none.
type fluxWorkload struct {
	sz   sizes
	seed uint64
	fl   massivefv.Fluid
	m    *massivefv.Mesh
}

func (w *fluxWorkload) options(workers int) massivefv.Options {
	o := massivefv.DefaultOptions(w.sz.fluxApps)
	o.Workers = workers
	return o
}

// setup is one complete set-up: the mesh build with the seeded geomodel.
func (w *fluxWorkload) setup(tr *tracer) (func(), error) {
	id := tr.begin("mesh.build", 0, -1)
	geo := massivefv.DefaultGeoOptions()
	geo.Seed = w.seed
	m, err := massivefv.BuildMeshWith(w.sz.fluxDims, geo)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	w.m = m
	return func() { w.m = nil }, nil
}

// run is one operation: fluxApps applications of Algorithm 1. With a tracer
// it opens core.run and synthesises core.device from Result.Elapsed; the
// remainder (arena, PE state, gather) is core.run's self time.
func (w *fluxWorkload) run(tr *tracer, op, workers int) (*massivefv.Result, error) {
	id := tr.begin("core.run", 0, op)
	res, err := massivefv.RunFlatParallelOpts(w.m, w.fl, w.options(workers))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.children(id, []string{"core.device"}, []float64{res.Elapsed.Seconds()})
	return res, nil
}

// residualError returns the largest |got−want| as a share of the largest
// |want|, the comparison core_test.go's assertResidualsClose makes.
func residualError(got []float32, want []float64) (float64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("residual length %d, reference %d", len(got), len(want))
	}
	scale, worst := 0.0, 0.0
	for i, w := range want {
		scale = math.Max(scale, math.Abs(w))
		worst = math.Max(worst, math.Abs(float64(got[i])-w))
	}
	if scale == 0 {
		return 0, fmt.Errorf("reference residual is all zero")
	}
	if math.IsNaN(worst) {
		return 0, fmt.Errorf("residual holds NaN")
	}
	return worst / scale, nil
}

func runFlux(seed uint64, sz sizes, tr *tracer) (*report, error) {
	r := newReport("flux-structured", tr != nil)
	y := newYardstick()
	w := &fluxWorkload{sz: sz, seed: seed, fl: massivefv.DefaultFluid()}

	setups, _, err := repeatSetup(y, sz.setups, func() (func(), error) { return w.setup(tr) })
	if err != nil {
		return nil, err
	}

	// Oracle: the float64 reference with the density model the dataflow
	// kernel computes with, same application count.
	ref, err := massivefv.RunReference(w.m, w.fl.WithModel(massivefv.DensityLinear), sz.fluxApps)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	var (
		res    *massivefv.Result
		device []float64 // Result.Elapsed of every untraced timed op, raw seconds
	)
	phase, err := runOps(y, sz.warm, sz.ops, tr,
		func(t *tracer, i int) (err error) {
			res, err = w.run(t, i, 1)
			return err
		},
		func(_ int, traced bool) {
			r.attempted++
			if !traced {
				device = append(device, res.Elapsed.Seconds())
			}
			if e, err := residualError(res.Residual, ref); err != nil {
				r.fail("flux residual: %v", err)
			} else if e > fluxTolerance {
				r.fail("flux residual off the float64 reference by %.3g of its scale (tolerance %g)", e, fluxTolerance)
			}
		})
	if err != nil {
		return nil, err
	}

	cells := float64(sz.fluxDims.Cells())
	setTimings(r, setups, phase.plain)
	r.set("cell_updates_per_s", cells*float64(sz.fluxApps*len(phase.plain))/sum(norms(phase.plain)))
	r.set("alloc_mb_per_op", phase.allocMiBPerOp)
	r.set("resident_mb", residentMiB())
	setHost(r, y)

	// Free layer numbers: the device/load split of the untraced ops and the
	// simulated per-cell statistics of the last result.
	var load, dev []float64
	for i, s := range phase.plain {
		d := normalised(device[i], s.yard)
		dev = append(dev, d)
		load = append(load, s.norm()-d)
	}
	r.set("core.device_s_per_op", median(dev))
	r.set("core.load_s_per_op", median(load))
	updates := float64(res.CellsUpdated())
	r.set("dsd.flops_per_cell", float64(res.Counters.Flops())/updates)
	r.set("dsd.mem_words_per_cell", float64(res.Counters.MemAccesses())/updates)
	r.set("dsd.fabric_words_per_cell", float64(res.Counters.FabricLoads)/updates)
	r.set("dsd.issues_per_cell", float64(res.Counters.Issues)/updates)

	if tr != nil {
		r.set("mesh.build_s", spanMedian(tr, "mesh.build", setups))
		if err := w.probes(r, y, median(dev)); err != nil {
			return nil, err
		}
		setTraceMetrics(r, tr, phase)
	}
	return r, nil
}

// probes are the layer diagnostics of the traced run, tied to no end-to-end
// metric: the Workers=2 engine, the float64 serial baseline and the
// goroutine-per-PE wavelet fabric.
func (w *fluxWorkload) probes(r *report, y *yardstick, deviceSeconds float64) error {
	var w1, w2 []float64
	for i := 0; i < w.sz.probes; i++ {
		for _, workers := range []int{1, 2} {
			var err error
			s := y.timed(func() { _, err = w.run(nil, -1, workers) })
			if err != nil {
				return fmt.Errorf("workers=%d probe: %w", workers, err)
			}
			if workers == 1 {
				w1 = append(w1, s.norm())
			} else {
				w2 = append(w2, s.norm())
			}
		}
	}
	r.set("core.flat_w2_speedup", median(w1)/median(w2))

	var refs []float64
	for i := 0; i < w.sz.probes; i++ {
		var err error
		s := y.timed(func() { _, err = massivefv.RunReference(w.m, w.fl, 1) })
		if err != nil {
			return fmt.Errorf("reference probe: %w", err)
		}
		refs = append(refs, s.norm())
	}
	r.set("refflux.s_per_app", median(refs))
	r.set("core.speedup_vs_refflux", median(refs)/(deviceSeconds/float64(w.sz.fluxApps)))

	// The fabric engine moves real wavelets between goroutine PEs; it is far
	// slower per cell, so it gets its own small mesh.
	geo := massivefv.DefaultGeoOptions()
	geo.Seed = w.seed
	dims := massivefv.Dims{Nx: 8, Ny: 8, Nz: 64}
	if w.sz.fluxDims.Cells() < dims.Cells() {
		dims = w.sz.fluxDims
	}
	small, err := massivefv.BuildMeshWith(dims, geo)
	if err != nil {
		return fmt.Errorf("fabric probe mesh: %w", err)
	}
	fab, err := massivefv.RunDataflowOpts(small, w.fl, massivefv.DefaultOptions(2))
	if err != nil {
		return fmt.Errorf("fabric probe: %w", err)
	}
	r.set("fabric.cell_updates_per_s", fab.HostThroughput())
	if fab.FabricTotals != nil {
		r.set("fabric.wavelets", float64(fab.FabricTotals.DeliveredToPE))
	}
	return nil
}

// setTraceMetrics fills the tracing figures: how much slower the operations
// ran with spans open, and whether every span's parts sum to it.
func setTraceMetrics(r *report, tr *tracer, ph *opPhase) {
	if len(ph.traced) > 0 {
		r.set("trace.overhead_share", median(norms(ph.traced))/median(norms(ph.plain))-1)
	}
	r.set("trace.parts_sum_error_max", partsError(tr.spans))
	if tr.clamped > 0 {
		r.fail("%d synthesised child spans ran past their parent", tr.clamped)
	}
}
