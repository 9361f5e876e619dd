package umesh

import (
	"fmt"
	"testing"

	"repro/internal/solver"
)

// fusedCGIterationOps builds the phase program the resident CG solver
// compiles for the Jacobi rung: fused apply+dot, fused
// CGStep+precond+both dots, Xpby (see solver.cgProgram).
func fusedCGIterationOps(alpha, beta, pap, rr, rz *float64) []solver.ProgOp {
	const (
		vX  = solver.Vec(0)
		vR  = solver.Vec(1)
		vZ  = solver.Vec(2)
		vP  = solver.Vec(3)
		vAp = solver.Vec(4)
	)
	return []solver.ProgOp{
		{Kind: solver.OpApplyDot, V1: vAp, V2: vP, V3: vP, R1: pap,
			Action: func() (bool, error) { *alpha = *rz / *pap; return false, nil }},
		{Kind: solver.OpCGStepPre, V1: vX, V2: vP, V3: vR, V4: vAp, V5: vZ,
			A1: alpha, R1: rr, R2: rz,
			Action: func() (bool, error) { *beta = 1.0; return false, nil }},
		{Kind: solver.OpXpby, V1: vP, V2: vZ, A1: beta},
	}
}

func TestCompiledCGIterationStepCount(t *testing.T) {
	// The counted minimum the phase-program executor exists for: a
	// Jacobi-preconditioned CG iteration must compile to exactly 3 plan steps
	// when no part exchanges halo data and 4 when the application pushes the
	// halo in a step of its own — and each iteration must cost exactly one
	// pool dispatch, with one barrier per step only when workers > 1.
	cases := []struct {
		name            string
		levels, workers int
		wantSteps       int
		barriersPerRun  uint64
	}{
		{"parts=1 workers=1", 0, 1, 3, 0}, // inline: no barriers at all
		{"parts=4 workers=1", 2, 1, 4, 0}, // exchanges but inline: extra push step, still barrier-free
		{"parts=4 workers=2", 2, 2, 4, 4}, // exchanges + real workers: one barrier per step
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			po, closeOp := residentFixture(t, tc.levels, tc.workers)
			defer closeOp()
			if err := po.SetPrecond(solver.PrecondJacobi); err != nil {
				t.Fatal(err)
			}
			po.Reserve(6)
			n := po.Size()
			po.Load2(1, probeVector(n, 3), 3, probeVector(n, 4))
			po.Load2(0, make([]float64, n), 2, probeVector(n, 5))

			alpha, beta := 1.0, 1.0
			var pap, rr, rz float64
			rz = 1.0
			prog, err := po.CompileProgram(fusedCGIterationOps(&alpha, &beta, &pap, &rr, &rz))
			if err != nil {
				t.Fatal(err)
			}
			plan := prog.(*compiledProgram).plan
			if got := plan.Steps(); got != tc.wantSteps {
				t.Fatalf("CG iteration compiled to %d steps, want %d", got, tc.wantSteps)
			}

			// Warm one pass, then assert the per-iteration counter deltas.
			if _, err := prog.Run(); err != nil {
				t.Fatal(err)
			}
			b0, d0 := po.l.pool.Counters()
			const runs = 3
			for i := 0; i < runs; i++ {
				if _, err := prog.Run(); err != nil {
					t.Fatal(err)
				}
			}
			b1, d1 := po.l.pool.Counters()
			if got := d1 - d0; got != runs {
				t.Errorf("%d dispatches over %d iterations, want exactly 1 per iteration", got, runs)
			}
			if got := b1 - b0; got != runs*tc.barriersPerRun {
				t.Errorf("%d barriers over %d iterations, want %d per iteration",
					got, runs, tc.barriersPerRun)
			}
			// The operator's public counters must mirror the pool deltas.
			if po.Comm.Dispatches != d1-po.baseDispatches || po.Comm.Barriers != b1-po.baseBarriers {
				t.Errorf("Comm counters (%d barriers, %d dispatches) out of sync with pool deltas (%d, %d)",
					po.Comm.Barriers, po.Comm.Dispatches, b1-po.baseBarriers, d1-po.baseDispatches)
			}
		})
	}

	// The whole-solve budget: a resident CG solve is preconditioner install,
	// scatter, set-up program, one program per iteration, gather — exactly
	// iterations + 4 pool dispatches for every rung and part count, with
	// exactly one scatter and one gather. Two tolerances per case show the
	// constant does not depend on the iteration count. A Resident compiled
	// once (what TransientSolver holds) has paid the install: iterations + 3.
	const solveOverhead = 4
	for _, kind := range []solver.PrecondKind{solver.PrecondJacobi, solver.PrecondAMG} {
		for _, levels := range []int{0, 2} {
			t.Run(fmt.Sprintf("solve %s parts=%d", kind, 1<<levels), func(t *testing.T) {
				po, closeOp := residentFixtureOn(t, ladderMesh(t), levels, 1)
				defer closeOp()
				n := po.Size()
				b := make([]float64, n)
				b[0], b[n-1] = 2.0, -2.0
				prevIts := 0
				for _, tol := range []float64{1e-4, 1e-9} {
					_, d0 := po.l.pool.Counters()
					s0, g0 := po.Scatters, po.Gathers
					st, err := solver.CG(po, make([]float64, n), b,
						solver.Options{Tol: tol, MaxIter: 800, PrecondKind: kind})
					if err != nil {
						t.Fatal(err)
					}
					_, d1 := po.l.pool.Counters()
					if got, want := d1-d0, uint64(st.Iterations+solveOverhead); got != want {
						t.Errorf("tol %g: %d dispatches for %d iterations, want iterations+%d = %d",
							tol, got, st.Iterations, solveOverhead, want)
					}
					if po.Scatters-s0 != 1 || po.Gathers-g0 != 1 {
						t.Errorf("tol %g: %d scatters and %d gathers, want exactly 1 each",
							tol, po.Scatters-s0, po.Gathers-g0)
					}
					if st.Iterations <= prevIts {
						t.Fatalf("tol %g took %d iterations, not more than the looser solve's %d — the table no longer varies the count",
							tol, st.Iterations, prevIts)
					}
					prevIts = st.Iterations
				}
				r, err := solver.CompileCG(po, solver.Options{Tol: 1e-9, MaxIter: 800, PrecondKind: kind})
				if err != nil {
					t.Fatal(err)
				}
				_, d0 := po.l.pool.Counters()
				st, err := r.Solve(make([]float64, n), b, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, d1 := po.l.pool.Counters()
				if got, want := d1-d0, uint64(st.Iterations+solveOverhead-1); got != want {
					t.Errorf("compiled Resident: %d dispatches for %d iterations, want %d", got, st.Iterations, want)
				}
			})
		}
	}
}

func TestCompileProgramRejectsUnknownOp(t *testing.T) {
	po, closeOp := residentFixture(t, 0, 1)
	defer closeOp()
	po.Reserve(2)
	if _, err := po.CompileProgram([]solver.ProgOp{{Kind: solver.OpKind(99)}}); err == nil {
		t.Fatal("compiling an unknown op kind succeeded, want error")
	}
}
