package solver

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
)

// fvsimStep builds the first implicit step of `fvsim -dims <d> -dataflow`
// (6 h step, a 4 kg/s injector at the quarter point, its producer at the
// three-quarter point): the system, its fluid and the right-hand side.
func fvsimStep(tb testing.TB, d mesh.Dims) (*PressureSystem, physics.Fluid, []float64) {
	tb.Helper()
	m, err := mesh.BuildDefault(d)
	if err != nil {
		tb.Fatal(err)
	}
	fl := physics.DefaultFluid()
	sys, err := NewPressureSystem(m, fl, 6*3600, refflux.FacesAll)
	if err != nil {
		tb.Fatal(err)
	}
	b := make([]float64, d.Cells())
	per := 4.0 / float64(d.Nz)
	for z := 0; z < d.Nz; z++ {
		b[m.Index(d.Nx/4, d.Ny/4, z)] += per
		b[m.Index(3*d.Nx/4, 3*d.Ny/4, z)] -= per
	}
	return sys, fl, b
}

// TestDataflowOperatorLeavesMeshUntouched: a CG solve through the operator —
// on the resident flat engine and on the fabric oracle — never swaps or
// writes the caller's pressure field (the operator used to stage x in
// m.Pressure for the duration of every Apply, a data race for any concurrent
// reader of the mesh).
func TestDataflowOperatorLeavesMeshUntouched(t *testing.T) {
	for _, fabric := range []bool{false, true} {
		sys, fl, b := fvsimStep(t, mesh.Dims{Nx: 5, Ny: 4, Nz: 3})
		m := sys.Mesh
		header, want := unsafe.SliceData(m.Pressure), append([]float64(nil), m.Pressure...)
		op := NewDataflowOperator(sys, fl)
		op.UseFabric = fabric
		t.Cleanup(op.Close)
		st, err := CG(op, make([]float64, op.Size()), b, Options{Tol: 1e-8, MaxIter: 800, PrecondDiag: sys.Diagonal()})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged || op.Applications < 2 {
			t.Fatalf("fabric=%v: solve did not exercise the operator: %+v, %d applications", fabric, st, op.Applications)
		}
		if unsafe.SliceData(m.Pressure) != header || len(m.Pressure) != len(want) {
			t.Fatalf("fabric=%v: the solve replaced the mesh's Pressure slice", fabric)
		}
		for i, v := range m.Pressure {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("fabric=%v: the solve wrote m.Pressure[%d]", fabric, i)
			}
		}
	}
}

// TestDataflowOperatorSteadyStateAllocFree: once the first Apply has
// compiled the engine, an application at workers=1 allocates nothing.
func TestDataflowOperatorSteadyStateAllocFree(t *testing.T) {
	sys, fl, x := fvsimStep(t, mesh.Dims{Nx: 6, Ny: 5, Nz: 4})
	op := NewDataflowOperator(sys, fl)
	t.Cleanup(op.Close)
	dst := make([]float64, len(x))
	if err := op.Apply(dst, x); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := op.Apply(dst, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Apply allocates %.0f times per call, want 0", allocs)
	}
}

// TestDataflowOperatorResidentMatchesFreshRuns: the resident engine's k-th
// application equals a fresh RunFlat on a mesh holding the same pressures —
// at one and at three workers, and again after Close recompiled the engine.
func TestDataflowOperatorResidentMatchesFreshRuns(t *testing.T) {
	sys, fl, _ := fvsimStep(t, mesh.Dims{Nx: 7, Ny: 6, Nz: 3})
	n := sys.Mesh.Dims.Cells()
	for _, workers := range []int{1, 3} {
		op := NewDataflowOperator(sys, fl)
		op.Workers = workers
		t.Cleanup(op.Close)
		got := make([]float64, n)
		for k := 0; k < 4; k++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = 1e5 * math.Sin(float64(i+7*k)*0.37)
			}
			if err := op.Apply(got, x); err != nil {
				t.Fatal(err)
			}
			view := *sys.Mesh
			view.Pressure = x
			fresh, err := core.RunFlat(&view, op.fluid, op.options())
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				want := sys.Accum[i]*x[i] - float64(fresh.Residual[i])
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("workers=%d application %d: dst[%d] = %g, fresh run gives %g", workers, k, i, got[i], want)
				}
			}
			if k == 1 {
				op.Close()
			}
		}
	}
}

// sampledOperator hands every Apply through and keeps a copy of every
// sixteenth vector it is applied to: the Krylov directions a solve feeds the
// kernel, for BenchmarkKernelDataflowCG to replay.
type sampledOperator struct {
	*DataflowOperator
	calls   int
	sampled [][]float64
}

func (s *sampledOperator) Apply(dst, x []float64) error {
	if s.calls%16 == 0 {
		s.sampled = append(s.sampled, append([]float64(nil), x...))
	}
	s.calls++
	return s.DataflowOperator.Apply(dst, x)
}

// BenchmarkKernelDataflowCG times the §8 scenario the way fvsim -dataflow
// runs it: one Jacobi-CG solve of the first implicit step on 24×24×32
// (shrunk under -short) through the dataflow operator, reporting the
// iteration count (471 on the full mesh) and ns/iteration; and next to it
// what an iteration cannot cost less than, one bare engine application on
// the vectors that solve applied the operator to. (Not on a smooth pressure
// field: the kernel's upwind select is a branch, and on Krylov directions it
// mispredicts — the same application costs about a third less on the
// mesh's own pressures.)
func BenchmarkKernelDataflowCG(b *testing.B) {
	d, wantIters := mesh.Dims{Nx: 24, Ny: 24, Nz: 32}, 471
	if testing.Short() {
		d, wantIters = mesh.Dims{Nx: 6, Ny: 6, Nz: 4}, 0
	}
	sys, fl, rhs := fvsimStep(b, d)
	solve := func(b *testing.B, op Operator) int {
		cg, err := CompileCG(&SliceSpace{Operator: op}, Options{Tol: 1e-8, MaxIter: 800, PrecondDiag: sys.Diagonal()})
		if err != nil {
			b.Fatal(err)
		}
		st, err := cg.Solve(make([]float64, len(rhs)), rhs, nil)
		if err != nil || !st.Converged || (wantIters != 0 && st.Iterations != wantIters) {
			b.Fatalf("solve: %+v, %v; want convergence in %d iterations", st, err, wantIters)
		}
		return st.Iterations
	}
	b.Run("solve", func(b *testing.B) {
		op := NewDataflowOperator(sys, fl)
		defer op.Close()
		iters := 0
		for i := 0; i < b.N; i++ {
			iters += solve(b, op)
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iterations")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iteration")
	})
	b.Run("apply", func(b *testing.B) {
		op := &sampledOperator{DataflowOperator: NewDataflowOperator(sys, fl)}
		defer op.Close()
		solve(b, op)
		eng, err := core.Compile(sys.Mesh, op.fluid, op.options())
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := eng.LoadPressure(op.sampled[i%len(op.sampled)]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := eng.Apply(1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
