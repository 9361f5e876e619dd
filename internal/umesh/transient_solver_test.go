package umesh

import (
	"strings"
	"testing"

	"repro/internal/physics"
	"repro/internal/solver"
)

// TestTransientSolverReuseBitIdentical is the engine-reuse golden test the
// serving layer leans on: a compiled TransientSolver must reproduce the
// one-shot path bit-for-bit on every Solve, including after solving a
// different request in between (all per-request state resets).
func TestTransientSolverReuseBitIdentical(t *testing.T) {
	u, opts := transientFixture(t)
	fl := physics.DefaultFluid()
	for _, kind := range []solver.PrecondKind{solver.PrecondJacobi, solver.PrecondAMG} {
		copts := opts
		copts.Solver.PrecondKind = kind
		part, err := RCB(u, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunTransientPartitioned(u, part, fl, copts)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := NewTransientSolver(u, part, fl, copts)
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		other := TransientOptions{
			Steps: 1,
			Wells: []Well{{Cell: 0, Rate: 1.5}, {Cell: u.NumCells - 1, Rate: -1.5}},
		}
		// Solve the template request, then a different one, then the template
		// again: the third run is the reuse probe.
		for run := 0; run < 3; run++ {
			req := TransientOptions{Steps: copts.Steps, Wells: copts.Wells}
			if run == 1 {
				req = other
				if _, err := ts.Solve(req); err != nil {
					t.Fatalf("%s run %d: %v", kind, run, err)
				}
				continue
			}
			got, err := ts.Solve(req)
			if err != nil {
				t.Fatalf("%s run %d: %v", kind, run, err)
			}
			if len(got.Steps) != len(want.Steps) {
				t.Fatalf("%s run %d: %d steps, want %d", kind, run, len(got.Steps), len(want.Steps))
			}
			for s := range want.Steps {
				if got.Steps[s].Iterations != want.Steps[s].Iterations {
					t.Fatalf("%s run %d step %d: %d iterations, one-shot took %d",
						kind, run, s, got.Steps[s].Iterations, want.Steps[s].Iterations)
				}
				if got.Steps[s] != want.Steps[s] {
					t.Fatalf("%s run %d step %d: report %+v diverged from one-shot %+v", kind, run, s, got.Steps[s], want.Steps[s])
				}
			}
			for i := range want.Pressure {
				if got.Pressure[i] != want.Pressure[i] {
					t.Fatalf("%s run %d: pressure[%d] = %g, one-shot %g",
						kind, run, i, got.Pressure[i], want.Pressure[i])
				}
			}
			if got.OperatorApplications != want.OperatorApplications ||
				got.Comm.HaloWords != want.Comm.HaloWords {
				t.Errorf("%s run %d: counters are not per-request deltas: %d apps / %d halo words, one-shot %d / %d",
					kind, run, got.OperatorApplications, got.Comm.HaloWords,
					want.OperatorApplications, want.Comm.HaloWords)
			}
		}
	}
}

// TestTransientSolveAllocsPinned pins what one warm Solve allocates: the
// result (pressure field, step reports) and each step's Stats — nothing per
// iteration (the residual history goes into a buffer the compiled solve
// reuses) and nothing for compilation, which happened once in
// NewTransientSolver. A per-solve program compile (24–36
// objects and 2–3 KB per step when this was written) would show here long
// before it moved the benchmark's alloc_mb_per_op.
func TestTransientSolveAllocsPinned(t *testing.T) {
	u := ladderMesh(t)
	fl := physics.DefaultFluid()
	for _, tc := range []struct {
		kind      solver.PrecondKind
		levels    int // RCB levels; -1 is the nil-partition serial reference
		maxAllocs float64
	}{
		// result + pressure + step list + Stats (before the history buffer
		// was reused, its append growth added 9 reallocations for 148
		// iterations and 6 for 26: caps 13 and 10).
		{solver.PrecondJacobi, 2, 4},
		{solver.PrecondAMG, 0, 4},
		// The serial path is compiled once too: no work vectors, inverse
		// diagonal or AMG scratch per step (before: 6 and 9 n-length vectors).
		{solver.PrecondJacobi, -1, 4},
		{solver.PrecondAMG, -1, 4},
	} {
		var part *Partition
		if tc.levels >= 0 {
			var err error
			if part, err = RCB(u, tc.levels); err != nil {
				t.Fatal(err)
			}
		}
		opts := TransientOptions{Dt: 3600, Workers: 1}
		opts.Solver.PrecondKind = tc.kind
		ts, err := NewTransientSolver(u, part, fl, opts)
		if err != nil {
			t.Fatal(err)
		}
		req := TransientOptions{Steps: 1, Wells: []Well{{Cell: u.WellIndex(), Rate: 2}, {Cell: u.NumCells - 1, Rate: -2}}}
		res, err := ts.Solve(req) // warm
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := ts.Solve(req); err != nil {
				t.Error(err)
			}
		})
		ts.Close()
		t.Logf("%s levels=%d: %d iterations, %.0f allocations per Solve", tc.kind, tc.levels, res.Steps[0].Iterations, allocs)
		if allocs > tc.maxAllocs {
			t.Errorf("%s levels=%d: one warm Solve allocates %.0f objects, pinned at %.0f",
				tc.kind, tc.levels, allocs, tc.maxAllocs)
		}
	}
}

// TestTransientSolverRequestValidation pins the resident API's error
// contract: every field frozen into the plan follows one rule — zero means the
// template's, a set value must equal the template's — and a closed solver
// refuses work.
func TestTransientSolverRequestValidation(t *testing.T) {
	u, opts := transientFixture(t)
	opts.Workers = 2
	opts.Solver.Tol = 1e-9
	opts.Solver.PrecondKind = solver.PrecondChebyshev
	fl := physics.DefaultFluid()
	part, err := RCB(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTransientSolver(u, part, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ts.Solve(TransientOptions{Steps: 1, Wells: opts.Wells})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string // "" = the request restates the template and is accepted
		set   func(*TransientOptions)
	}{
		{"", func(r *TransientOptions) { r.Dt = opts.Dt }},
		{"", func(r *TransientOptions) { r.Porosity = DefaultPorosity }},
		{"", func(r *TransientOptions) { r.Workers = 2 }},
		{"", func(r *TransientOptions) { r.Solver = opts.Solver }},
		{"", func(r *TransientOptions) { r.Solver.MaxIter = 800 }},
		{"Dt", func(r *TransientOptions) { r.Dt = opts.Dt * 2 }},
		{"Porosity", func(r *TransientOptions) { r.Porosity = 0.3 }},
		{"Workers", func(r *TransientOptions) { r.Workers = 1 }},
		{"Solver.Tol", func(r *TransientOptions) { r.Solver.Tol = 1e-10 }},
		{"Solver.MaxIter", func(r *TransientOptions) { r.Solver.MaxIter = 10 }},
		{"Solver.PrecondKind", func(r *TransientOptions) { r.Solver.PrecondKind = solver.PrecondAMG }},
	} {
		req := TransientOptions{Steps: 1, Wells: opts.Wells}
		tc.set(&req)
		res, err := ts.Solve(req)
		if tc.field == "" {
			if err != nil {
				t.Errorf("request restating the template refused: %v", err)
			} else if res.Steps[0].Iterations != want.Steps[0].Iterations {
				t.Errorf("request restating the template took %d iterations, the bare request %d",
					res.Steps[0].Iterations, want.Steps[0].Iterations)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "request "+tc.field+" ") ||
			!strings.Contains(err.Error(), "compile a new solver") {
			t.Errorf("mismatched %s accepted or misreported: %v", tc.field, err)
		}
	}
	if _, err := ts.Solve(TransientOptions{Steps: 1, Wells: []Well{{Cell: u.NumCells, Rate: 1}}}); err == nil {
		t.Error("out-of-range request well accepted")
	}
	ts.Close()
	ts.Close() // idempotent
	if _, err := ts.Solve(TransientOptions{Steps: 1, Wells: opts.Wells}); err == nil ||
		!strings.Contains(err.Error(), "closed") {
		t.Errorf("closed solver accepted work: %v", err)
	}
}

// TestTransientStepsRepeatTheFirst states a modelling gap rather than a
// virtue: Solve builds b from the wells once and zeroes x every step, and no
// step feeds the pressure it reached back into the next right-hand side, so
// every step of a request solves the identical system — same iteration
// count, same final residual, same δp. A true backward-Euler right-hand
// side (q plus the accumulation of pⁿ) would make this test fail; it is
// there so that change is made on purpose.
func TestTransientStepsRepeatTheFirst(t *testing.T) {
	u, opts := transientFixture(t)
	opts.Steps = 3
	for _, kind := range []solver.PrecondKind{solver.PrecondJacobi, solver.PrecondAMG} {
		opts.Solver.PrecondKind = kind
		res, err := RunTransientPartitioned(u, nil, physics.DefaultFluid(), opts)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		first := res.Steps[0]
		for _, st := range res.Steps[1:] {
			if st.Iterations != first.Iterations || st.MaxDeltaP != first.MaxDeltaP || st.Residual != first.Residual {
				t.Errorf("%s step %d: %d iterations, max δp %g differ from step 0's %d, %g (or the final residual does)",
					kind, st.Step, st.Iterations, st.MaxDeltaP, first.Iterations, first.MaxDeltaP)
			}
		}
	}
}
