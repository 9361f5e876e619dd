package umesh

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/physics"
	"repro/internal/solver"
)

// transientFixture returns the radial mesh and well setup the transient
// tests run: injector at the well cell, balanced producer at the outermost
// cell.
func transientFixture(t *testing.T) (*Mesh, TransientOptions) {
	t.Helper()
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := TransientOptions{
		Dt:    3600,
		Steps: 3,
		Wells: []Well{
			{Cell: u.WellIndex(), Rate: 2.0},
			{Cell: u.NumCells - 1, Rate: -2.0},
		},
	}
	return u, opts
}

func TestTransientPartitionedGoldenAgainstSerial(t *testing.T) {
	// The golden regression of this PR: the partitioned transient solve is
	// bit-identical to the serial UHostOperator reference — per-step residual
	// histories, iteration counts, and the final state — across parts
	// {1,2,4,8} × workers {1,2,4}. CI runs this under -race.
	u, opts := transientFixture(t)
	fl := physics.DefaultFluid()
	want, err := RunTransientPartitioned(u, nil, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Steps) != opts.Steps {
		t.Fatalf("serial reference ran %d steps, want %d", len(want.Steps), opts.Steps)
	}
	for _, levels := range []int{0, 1, 2, 3} {
		part, err := RCB(u, levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			popts := opts
			popts.Workers = workers
			got, err := RunTransientPartitioned(u, part, fl, popts)
			if err != nil {
				t.Fatal(err)
			}
			for s := range want.Steps {
				ws, gs := want.Steps[s], got.Steps[s]
				if gs.Iterations != ws.Iterations {
					t.Fatalf("parts=%d workers=%d step %d: %d iterations, serial took %d",
						part.NumParts, workers, s, gs.Iterations, ws.Iterations)
				}
				if gs != ws {
					t.Fatalf("parts=%d workers=%d step %d: report diverged: %+v vs %+v",
						part.NumParts, workers, s, gs, ws)
				}
			}
			for i := range want.Pressure {
				if got.Pressure[i] != want.Pressure[i] {
					t.Fatalf("parts=%d workers=%d: final pressure[%d] differs: %g vs %g",
						part.NumParts, workers, i, got.Pressure[i], want.Pressure[i])
				}
			}
			if got.OperatorApplications == 0 {
				t.Errorf("parts=%d workers=%d: no partitioned operator applications recorded", part.NumParts, workers)
			}
			// The part-resident guarantee at the level of a whole run: one
			// scatter and one gather per time step, a populated phase
			// breakdown, and halo traffic exactly when there is a neighbor.
			if got.Scatters != opts.Steps || got.Gathers != opts.Steps {
				t.Errorf("parts=%d workers=%d: %d scatters / %d gathers for %d steps, want %d each",
					part.NumParts, workers, got.Scatters, got.Gathers, opts.Steps, opts.Steps)
			}
			if got.Phase.Total() <= 0 {
				t.Errorf("parts=%d workers=%d: no per-phase time recorded: %+v", part.NumParts, workers, got.Phase)
			}
			if split := part.NumParts > 1; (got.Comm.HaloWords != 0) != split || (got.Comm.Messages != 0) != split {
				t.Errorf("parts=%d workers=%d: halo traffic %+v", part.NumParts, workers, got.Comm)
			}
		}
	}
}

func TestTransientPhysicallySensible(t *testing.T) {
	// Injection raises pressure at the injector, drops it at the producer,
	// and each step conserves mass to solver tolerance.
	u, opts := transientFixture(t)
	part, err := RCB(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTransientPartitioned(u, part, physics.DefaultFluid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	inj := res.Pressure[u.WellIndex()] - 2e7
	prod := res.Pressure[u.NumCells-1] - 2e7
	if inj <= 0 || prod >= 0 {
		t.Errorf("pressure response has the wrong sign: injector %+g, producer %+g", inj, prod)
	}
	for _, st := range res.Steps {
		if st.MassError > 1e-6 {
			t.Errorf("step %d: mass error %g too large", st.Step, st.MassError)
		}
		if st.MaxDeltaP <= 0 {
			t.Errorf("step %d: no pressure change", st.Step)
		}
	}
	if res.Comm.HaloWords == 0 || res.Comm.Messages == 0 {
		t.Error("partitioned solve shipped no halo traffic")
	}
}

func TestTransientValidation(t *testing.T) {
	u, opts := transientFixture(t)
	fl := physics.DefaultFluid()
	bad := opts
	bad.Dt = 0
	if _, err := RunTransientPartitioned(u, nil, fl, bad); err == nil {
		t.Error("zero dt accepted")
	}
	bad = opts
	bad.Wells = nil
	if _, err := RunTransientPartitioned(u, nil, fl, bad); err == nil {
		t.Error("no wells accepted")
	}
	bad = opts
	bad.Wells = []Well{{Cell: -1, Rate: 1}}
	if _, err := RunTransientPartitioned(u, nil, fl, bad); err == nil {
		t.Error("out-of-range well accepted")
	}
	bad = opts
	bad.Wells = []Well{{Cell: 0, Rate: 0}}
	if _, err := RunTransientPartitioned(u, nil, fl, bad); err == nil {
		t.Error("all-zero rates accepted")
	}
	bad = opts
	bad.InitialPressure = make([]float64, 3)
	if _, err := RunTransientPartitioned(u, nil, fl, bad); err == nil {
		t.Error("wrong-length initial pressure accepted")
	}

	// Nonzero rates whose right-hand side is still zero, serial and
	// partitioned: each would "solve" in no iteration with Δp = 0.
	part, err := RCB(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := u.NumCells - 1
	for _, p := range []*Partition{nil, part} {
		for _, c := range []struct {
			name  string
			wells []Well
		}{
			{"wells cancelling in one cell", []Well{{Cell: 0, Rate: 2}, {Cell: 0, Rate: -2}}},
			{"subnormal rates", []Well{{Cell: 0, Rate: 1e-320}, {Cell: last, Rate: -1e-320}}},
			{"rate whose square underflows", []Well{{Cell: 0, Rate: 1e-170}}},
		} {
			bad = opts
			bad.Wells = c.wells
			if _, err := RunTransientPartitioned(u, p, fl, bad); err == nil {
				t.Errorf("%s accepted (partitioned: %t)", c.name, p != nil)
			}
		}
		tiny := opts
		tiny.Steps = 1
		tiny.Wells = []Well{{Cell: 0, Rate: 1e-100}}
		res, err := RunTransientPartitioned(u, p, fl, tiny)
		if err != nil {
			t.Fatalf("a 1e-100 rate rejected (partitioned: %t): %v", p != nil, err)
		}
		if st := res.Steps[0]; st.Iterations == 0 || st.MaxDeltaP <= 0 {
			t.Errorf("a 1e-100 rate did not drive the flow (partitioned: %t): %d iterations, max Δp %g",
				p != nil, st.Iterations, st.MaxDeltaP)
		}
	}
}

// Rates whose ‖b‖² overflows are refused by name, serial and partitioned —
// one rate whose square is +Inf, and two in different cells whose squares
// are finite but sum to +Inf — rather than reaching CG as a breakdown.
func TestTransientRefusesOverflowingRates(t *testing.T) {
	u, opts := transientFixture(t)
	fl := physics.DefaultFluid()
	part, err := RCB(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Partition{nil, part} {
		for _, wells := range [][]Well{
			{{Cell: 0, Rate: 1e300}},
			{{Cell: 0, Rate: 1e154}, {Cell: u.NumCells - 1, Rate: 1e154}},
		} {
			bad := opts
			bad.Wells = wells
			_, err := RunTransientPartitioned(u, p, fl, bad)
			if err == nil || !strings.Contains(err.Error(), "overflow") || errors.Is(err, solver.ErrBreakdown) {
				t.Errorf("wells %v (partitioned: %t): want the overflow refusal, got %v", wells, p != nil, err)
			}
		}
	}
}

// BenchmarkUsolveStep measures one partitioned implicit step (4 parts,
// NumCPU workers), compile included; -cpu 1,2 runs that pool on one and two
// Ps — the unstructured side of the second-core measurement.
func BenchmarkUsolveStep(b *testing.B) {
	u := benchRadial(b)
	part, err := RCB(u, 2)
	if err != nil {
		b.Fatal(err)
	}
	opts := TransientOptions{
		Dt:    3600,
		Steps: 1,
		Wells: []Well{
			{Cell: u.WellIndex(), Rate: 2.0},
			{Cell: u.NumCells - 1, Rate: -2.0},
		},
	}
	fl := physics.DefaultFluid()
	if _, err := RunTransientPartitioned(u, part, fl, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTransientPartitioned(u, part, fl, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUsolveSetup times the three stages of one usolve set-up on the
// 15360-cell benchmark mesh: the radial mesh build, RCB at 2 levels with the
// canonical-order cache cleared each iteration (so the order is recomputed,
// as on a fresh mesh), and compiling the Jacobi transient solver on that
// partition.
func BenchmarkUsolveSetup(b *testing.B) {
	u := benchRadial(b)
	part, err := RCB(u, 2)
	if err != nil {
		b.Fatal(err)
	}
	opts := TransientOptions{Dt: 3600, Steps: 2, Workers: 1}
	opts.Solver.Tol = 1e-8
	b.Run("mesh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRadial(b)
		}
	})
	b.Run("rcb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u.canonMu.Lock()
			u.canon = nil
			u.canonMu.Unlock()
			if _, err := RCB(u, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := NewTransientSolver(u, part, physics.DefaultFluid(), opts)
			if err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
	})
}
