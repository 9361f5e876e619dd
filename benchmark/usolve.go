package main

import (
	"fmt"
	"math"

	"repro/massivefv"
)

const (
	usolveDt  = 3600.0 // seconds per backward-Euler step
	usolveTol = 1e-8   // CG relative tolerance of both usolve workloads
)

// usolveWorkload is one transient implicit solve per operation on the radial
// mesh, through a resident TransientSolver. The two instances stress the same
// umesh/solver/exec layers differently:
//
//   - usolve-jacobi-p4: RCB 4 parts, Jacobi-CG — ≈1.4 k iterations per 3
//     steps, operator apply + dots + halo direct-writes dominate and the
//     preconditioner is one divide;
//   - usolve-amg-p1: one part, AMG — no halo, few iterations, smoothing,
//     restriction and the host-serial coarse solve dominate.
//
// A change that speeds apply at the cost of preconditioner stages (or the
// reverse) wins on one and loses on the other.
type usolveWorkload struct {
	name    string
	levels  int // RCB bisection depth: 2^levels parts
	precond massivefv.PrecondKind
	sz      sizes
	fl      massivefv.Fluid
	req     massivefv.UTransientOptions // the seeded request every op solves

	u      *massivefv.UMesh
	part   *massivefv.UPartition
	solver *massivefv.UTransientSolver
}

// radialMesh builds the workload mesh: the well-centred refined radial grid
// of every committed BENCH_*.json at the default sizes.
func radialMesh(sz sizes) (*massivefv.UMesh, error) {
	ro := massivefv.DefaultRadialOptions()
	ro.Rings, ro.BaseSectors, ro.RefineEvery = sz.rings, sz.sectors, sz.refineEvery
	ro.R0, ro.DR, ro.Dz, ro.PermMD = 1, 4, 4, 200
	return massivefv.NewRadialMesh(ro)
}

// template is the compiled step template; workers is 1 everywhere but the
// exec.w2_speedup probe.
func (w *usolveWorkload) template(workers int) massivefv.UTransientOptions {
	opts := massivefv.UTransientOptions{Dt: usolveDt, Steps: w.sz.usolveSteps, Workers: workers}
	opts.Solver.Tol = usolveTol
	opts.Solver.PrecondKind = w.precond
	return opts
}

// setup is one complete set-up: mesh build, RCB and plan compilation.
func (w *usolveWorkload) setup(tr *tracer) (func(), error) {
	id := tr.begin("umesh.mesh_build", 0, -1)
	u, err := radialMesh(w.sz)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("umesh.rcb", 0, -1)
	part, err := massivefv.PartitionRCB(u, w.levels)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("umesh.compile", 0, -1)
	s, err := massivefv.NewTransientSolver(u, part, w.fl, w.template(1))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	w.u, w.part, w.solver = u, part, s
	return s.Close, nil
}

// solve is one operation. With a tracer it opens umesh.solve and synthesises
// the exchange/compute/reduce children from TransientResult.Phase; the
// remainder (RHS, per-step update and checks) is the span's self time.
func (w *usolveWorkload) solve(tr *tracer, op int) (*massivefv.UTransientResult, error) {
	id := tr.begin("umesh.solve", 0, op)
	res, err := w.solver.Solve(w.req)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.children(id,
		[]string{"umesh.exchange", "umesh.compute", "umesh.reduce"},
		[]float64{res.Phase.Exchange, res.Phase.Compute, res.Phase.Reduce})
	return res, nil
}

// usolveCounts are the counts one solve reports; with a fixed request they
// repeat exactly, op to op and run to run.
type usolveCounts struct {
	iterations, applications, scatters, gathers int
	haloWords, messages, dispatches, barriers   uint64
}

func countsOf(res *massivefv.UTransientResult) usolveCounts {
	c := usolveCounts{
		applications: res.OperatorApplications,
		scatters:     res.Scatters, gathers: res.Gathers,
		haloWords: res.Comm.HaloWords, messages: res.Comm.Messages,
		dispatches: res.Comm.Dispatches, barriers: res.Comm.Barriers,
	}
	for _, st := range res.Steps {
		c.iterations += st.Iterations
	}
	return c
}

// samePressure reports bit-for-bit equality of two fields (a NaN never
// equals, so a poisoned field fails).
func samePressure(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runUsolve(name string, levels int, precond massivefv.PrecondKind) func(uint64, sizes, *tracer) (*report, error) {
	return func(seed uint64, sz sizes, tr *tracer) (*report, error) {
		w := &usolveWorkload{name: name, levels: levels, precond: precond, sz: sz, fl: massivefv.DefaultFluid()}
		return w.run(seed, tr)
	}
}

func (w *usolveWorkload) run(seed uint64, tr *tracer) (*report, error) {
	r := newReport(w.name, tr != nil)
	y := newYardstick()
	sz := w.sz
	w.req = usolveRequest(seed, sz)

	setups, teardown, err := repeatSetup(y, sz.setups, func() (func(), error) { return w.setup(tr) })
	if err != nil {
		return nil, err
	}
	defer teardown()

	// Oracle: the nil-partition serial reference solving the same request.
	// Partitioned solves must match it bit for bit.
	serial, err := massivefv.NewTransientSolver(w.u, nil, w.fl, w.template(1))
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	defer serial.Close()
	var ref *massivefv.UTransientResult
	refSample := y.timed(func() { ref, err = serial.Solve(w.req) })
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}

	var (
		res       *massivefv.UTransientResult
		first     *usolveCounts
		phases    [3][]float64 // exchange, compute, reduce of every untraced op, raw
		massError float64
	)
	phase, err := runOps(y, sz.warm, sz.ops, tr,
		func(t *tracer, i int) (err error) {
			res, err = w.solve(t, i)
			return err
		},
		func(i int, traced bool) {
			r.attempted++
			if !traced {
				phases[0] = append(phases[0], res.Phase.Exchange)
				phases[1] = append(phases[1], res.Phase.Compute)
				phases[2] = append(phases[2], res.Phase.Reduce)
			}
			c := countsOf(res)
			if first == nil {
				first = &c
			}
			switch {
			case !samePressure(res.Pressure, ref.Pressure):
				r.fail("op %d: pressure differs from the serial reference", i)
			case c != *first:
				r.fail("op %d: counts %+v differ from the first op's %+v", i, c, *first)
			case len(res.Steps) != sz.usolveSteps:
				r.fail("op %d: %d steps solved, want %d", i, len(res.Steps), sz.usolveSteps)
			default:
				for _, st := range res.Steps {
					if !(st.Residual <= usolveTol) {
						r.fail("op %d step %d: residual %g above tolerance %g", i, st.Step, st.Residual, usolveTol)
						break
					}
					massError = math.Max(massError, st.MassError)
				}
			}
		})
	if err != nil {
		return nil, err
	}

	setTimings(r, setups, phase.plain)
	// Every op solved all its steps to tolerance, or it was counted failed.
	r.set("cell_updates_per_s", float64(w.u.NumCells*sz.usolveSteps*len(phase.plain))/sum(norms(phase.plain)))
	r.set("alloc_mb_per_op", phase.allocMiBPerOp)
	r.set("resident_mb", residentMiB())
	setHost(r, y)

	// Free layer numbers: the exact counts and the phase split.
	r.set("solver.iterations_per_op", float64(first.iterations))
	r.set("umesh.operator_applications_per_op", float64(first.applications))
	r.set("umesh.halo_words_per_op", float64(first.haloWords))
	r.set("umesh.messages_per_op", float64(first.messages))
	r.set("exec.dispatches_per_op", float64(first.dispatches))
	r.set("exec.barriers_per_op", float64(first.barriers))
	r.set("umesh.scatters_per_op", float64(first.scatters))
	r.set("umesh.gathers_per_op", float64(first.gathers))
	r.set("solver.mass_error_max", massError)
	var norm [3][]float64
	var host []float64
	for i, s := range phase.plain {
		total := 0.0
		for k := range phases {
			v := normalised(phases[k][i], s.yard)
			norm[k] = append(norm[k], v)
			total += v
		}
		host = append(host, s.norm()-total)
	}
	r.set("umesh.phase_exchange_s", median(norm[0]))
	r.set("umesh.phase_compute_s", median(norm[1]))
	r.set("umesh.phase_reduce_s", median(norm[2]))
	r.set("solver.host_s_per_op", median(host))
	opSeconds := median(norms(phase.plain))
	r.set("solver.s_per_iteration", opSeconds/float64(first.iterations))

	if tr != nil {
		r.set("umesh.mesh_build_s", spanMedian(tr, "umesh.mesh_build", setups))
		r.set("umesh.rcb_s", spanMedian(tr, "umesh.rcb", setups))
		r.set("umesh.compile_s", spanMedian(tr, "umesh.compile", setups))
		r.set("umesh.serial_ref_s", refSample.norm())
		r.set("umesh.speedup_vs_serial_ref", refSample.norm()/opSeconds)
		if err := w.probes(r, y); err != nil {
			return nil, err
		}
		setTraceMetrics(r, tr, phase)
	}
	return r, nil
}

// spanMedian is the median duration of the set-up spans with this name, each
// normalised by the yardstick reading of the set-up it belongs to.
func spanMedian(tr *tracer, name string, setups []sample) float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name && s.Parent == 0 && len(out) < len(setups) {
			out = append(out, normalised(s.dur(), setups[len(out)].yard))
		}
	}
	return median(out)
}

// probes are the layer diagnostics of the traced run, tied to no end-to-end
// metric: parts 2 at workers 2 against workers 1 (where barrier and park work
// will show once a quieter host exists), the float32 PartEngine's raw
// application rate, and the unserved one-shot cost (compile + solve + close).
func (w *usolveWorkload) probes(r *report, y *yardstick) error {
	part2, err := massivefv.PartitionRCB(w.u, 1)
	if err != nil {
		return fmt.Errorf("w2 probe partition: %w", err)
	}
	var byWorkers [2][]float64
	for k, workers := range []int{1, 2} {
		s, err := massivefv.NewTransientSolver(w.u, part2, w.fl, w.template(workers))
		if err != nil {
			return fmt.Errorf("workers=%d probe: %w", workers, err)
		}
		for i := 0; i < w.sz.probes; i++ {
			smp := y.timed(func() { _, err = s.Solve(w.req) })
			if err != nil {
				s.Close()
				return fmt.Errorf("workers=%d probe: %w", workers, err)
			}
			byWorkers[k] = append(byWorkers[k], smp.norm())
		}
		s.Close()
	}
	r.set("exec.w2_speedup", median(byWorkers[0])/median(byWorkers[1]))

	eng, err := massivefv.RunUnstructured(w.u, w.part, w.fl, massivefv.UnstructuredOptions{
		UEngineOptions: massivefv.UEngineOptions{Apps: 8, Workers: 1},
	})
	if err != nil {
		return fmt.Errorf("engine probe: %w", err)
	}
	r.set("umesh.engine_cell_updates_per_s", eng.HostThroughput())

	oneshot := w.template(1)
	oneshot.Wells = w.req.Wells
	var shots []float64
	for i := 0; i < w.sz.probes; i++ {
		smp := y.timed(func() { _, err = massivefv.RunTransientUnstructured(w.u, w.part, w.fl, oneshot) })
		if err != nil {
			return fmt.Errorf("one-shot probe: %w", err)
		}
		shots = append(shots, smp.norm())
	}
	r.set("umesh.oneshot_s", median(shots))
	return nil
}
