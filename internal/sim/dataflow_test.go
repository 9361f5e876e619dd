package sim

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/solver"
	"repro/internal/umesh"
)

// fvsimStep builds the first implicit step of `fvsim -dims <d> -dataflow`
// (6 h step, a 4 kg/s injector at the quarter point, its producer at the
// three-quarter point) on the given stencil: the mesh, the system RunTransient
// builds for it, the fluid and the right-hand side.
func fvsimStep(tb testing.TB, d mesh.Dims, faces refflux.FaceSet) (*mesh.Mesh, *umesh.USystem, physics.Fluid, []float64) {
	tb.Helper()
	m, err := mesh.BuildDefault(d)
	if err != nil {
		tb.Fatal(err)
	}
	u, err := umesh.FromStructured(m, faces)
	if err != nil {
		tb.Fatal(err)
	}
	fl := physics.DefaultFluid()
	sys, err := umesh.NewUSystem(u, fl, 6*3600, 0)
	if err != nil {
		tb.Fatal(err)
	}
	b := make([]float64, d.Cells())
	per := 4.0 / float64(d.Nz)
	for z := 0; z < d.Nz; z++ {
		b[m.Index(d.Nx/4, d.Ny/4, z)] += per
		b[m.Index(3*d.Nx/4, 3*d.Ny/4, z)] -= per
	}
	return m, sys, fl, b
}

// solveCG is one Jacobi-CG solve the way RunTransient runs it: the system's
// reference space (canonical blocked dots) over op.
func solveCG(tb testing.TB, sys *umesh.USystem, op solver.Operator, b []float64, tol float64) ([]float64, *solver.Stats) {
	tb.Helper()
	cg, err := solver.CompileCG(umesh.ReferenceSpace(sys, op), solver.Options{Tol: tol, MaxIter: 800})
	if err != nil {
		tb.Fatal(err)
	}
	x := make([]float64, len(b))
	st, err := cg.Solve(x, b, nil)
	if err != nil || !st.Converged {
		tb.Fatalf("solve: %+v, %v", st, err)
	}
	return x, st
}

func TestDataflowOperatorMatchesHost(t *testing.T) {
	// §8's claim in practice: the dataflow kernel applies the same linear
	// operator as the host (float32 engine vs float64 UHostOperator).
	for _, faces := range []refflux.FaceSet{refflux.FacesAll, refflux.FacesCardinal} {
		m, sys, fl, _ := fvsimStep(t, mesh.Dims{Nx: 5, Ny: 4, Nz: 3}, faces)
		host := &umesh.UHostOperator{Sys: sys}
		dfo := NewDataflowOperator(m, sys, fl, faces)
		if err := dfo.Verify(); err != nil {
			t.Fatal(err)
		}
		n := host.Size()
		x := make([]float64, n)
		for i := range x {
			x[i] = 1e5 * math.Sin(float64(i)*0.9) // pressure-scale probe
		}
		hx := make([]float64, n)
		dx := make([]float64, n)
		if err := host.Apply(hx, x); err != nil {
			t.Fatal(err)
		}
		if err := dfo.Apply(dx, x); err != nil {
			t.Fatal(err)
		}
		scale := 0.0
		for i := range hx {
			if a := math.Abs(hx[i]); a > scale {
				scale = a
			}
		}
		for i := range hx {
			if math.Abs(hx[i]-dx[i]) > 5e-4*scale {
				t.Fatalf("faces %v: A·x mismatch at %d: host %g vs dataflow %g",
					faces, i, hx[i], dx[i])
			}
		}
		if dfo.Applications != 1 {
			t.Errorf("applications = %d, want 1", dfo.Applications)
		}
	}
	// A system of another mesh is refused.
	m, _, fl, _ := fvsimStep(t, mesh.Dims{Nx: 5, Ny: 4, Nz: 3}, refflux.FacesAll)
	_, other, _, _ := fvsimStep(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 3}, refflux.FacesAll)
	if err := NewDataflowOperator(m, other, fl, refflux.FacesAll).Verify(); err == nil {
		t.Error("a system of a different mesh passed Verify")
	}
}

// fabricApply is the operator's independent oracle: A·x through one whole
// goroutine-per-PE RunFabric on a shallow mesh copy whose Pressure is x (so
// the mesh is only read), with the same options and accumulation as op.
func fabricApply(tb testing.TB, op *DataflowOperator, x []float64) []float64 {
	tb.Helper()
	view := *op.Mesh
	view.Pressure = x
	res, err := core.RunFabric(&view, op.fluid, op.options())
	if err != nil {
		tb.Fatal(err)
	}
	ax := make([]float64, len(x))
	for i := range ax {
		ax[i] = op.Sys.Accum[i]*x[i] - float64(res.Residual[i])
	}
	return ax
}

// assertOnFabric holds the operator's application to x to the fabric oracle,
// bit for bit.
func assertOnFabric(tb testing.TB, op *DataflowOperator, x []float64) {
	tb.Helper()
	got := make([]float64, len(x))
	if err := op.Apply(got, x); err != nil {
		tb.Fatal(err)
	}
	for i, want := range fabricApply(tb, op, x) {
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			tb.Fatalf("fabric/flat operator mismatch at %d: %g vs %g", i, want, got[i])
		}
	}
}

func TestDataflowOperatorOnFabric(t *testing.T) {
	m, sys, fl, _ := fvsimStep(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 2}, refflux.FacesAll)
	flat := NewDataflowOperator(m, sys, fl, refflux.FacesAll)
	t.Cleanup(flat.Close)
	x := make([]float64, flat.Size())
	for i := range x {
		x[i] = float64(i%5) * 1e4
	}
	assertOnFabric(t, flat, x)
}

func TestPressureSolveWithDataflowOperator(t *testing.T) {
	// End-to-end §8 scenario: CG over the matrix-free dataflow operator
	// solves an injection/production pressure step.
	m, sys, fl, b := fvsimStep(t, mesh.Dims{Nx: 6, Ny: 5, Nz: 3}, refflux.FacesAll)
	dfo := NewDataflowOperator(m, sys, fl, refflux.FacesAll)
	t.Cleanup(dfo.Close)
	x, _ := solveCG(t, sys, dfo, b, 1e-6)
	// True residual check against the host operator.
	ax := make([]float64, len(x))
	if err := (&umesh.UHostOperator{Sys: sys}).Apply(ax, x); err != nil {
		t.Fatal(err)
	}
	num, den := 0.0, 0.0
	for i := range ax {
		num += (ax[i] - b[i]) * (ax[i] - b[i])
		den += b[i] * b[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-4 {
		t.Errorf("true residual %g too large (float32 operator)", rel)
	}
	// Injection raises pressure at the injector relative to the producer.
	d := m.Dims
	if inj, prod := x[m.Index(d.Nx/4, d.Ny/4, 1)], x[m.Index(3*d.Nx/4, 3*d.Ny/4, 1)]; inj <= prod {
		t.Errorf("injector pressure %g not above producer %g", inj, prod)
	}
}

// TestDataflowOperatorLeavesMeshUntouched: a CG solve through the operator
// never swaps or writes the caller's pressure field (the operator used to
// stage x in m.Pressure for the duration of every Apply, a data race for any
// concurrent reader of the mesh), and neither does the fabric oracle, which
// still agrees with the operator bit for bit on the solution.
func TestDataflowOperatorLeavesMeshUntouched(t *testing.T) {
	m, sys, fl, b := fvsimStep(t, mesh.Dims{Nx: 5, Ny: 4, Nz: 3}, refflux.FacesAll)
	header, want := unsafe.SliceData(m.Pressure), append([]float64(nil), m.Pressure...)
	op := NewDataflowOperator(m, sys, fl, refflux.FacesAll)
	t.Cleanup(op.Close)
	x, _ := solveCG(t, sys, op, b, 1e-8)
	if op.Applications < 2 {
		t.Fatalf("solve did not exercise the operator: %d applications", op.Applications)
	}
	assertOnFabric(t, op, x)
	if unsafe.SliceData(m.Pressure) != header || len(m.Pressure) != len(want) {
		t.Fatal("the solve replaced the mesh's Pressure slice")
	}
	for i, v := range m.Pressure {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("the solve or the oracle wrote m.Pressure[%d]", i)
		}
	}
}

// TestDataflowOperatorSteadyStateAllocFree: once the first Apply has
// compiled the engine, an application at workers=1 allocates nothing.
func TestDataflowOperatorSteadyStateAllocFree(t *testing.T) {
	m, sys, fl, x := fvsimStep(t, mesh.Dims{Nx: 6, Ny: 5, Nz: 4}, refflux.FacesAll)
	op := NewDataflowOperator(m, sys, fl, refflux.FacesAll)
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
// application equals a fresh RunFlatParallel on a mesh holding the same
// pressures — at one and at three workers, and again after Close recompiled
// the engine.
func TestDataflowOperatorResidentMatchesFreshRuns(t *testing.T) {
	m, sys, fl, _ := fvsimStep(t, mesh.Dims{Nx: 7, Ny: 6, Nz: 3}, refflux.FacesAll)
	n := m.Dims.Cells()
	for _, workers := range []int{1, 3} {
		op := NewDataflowOperator(m, sys, fl, refflux.FacesAll)
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
			view := *m
			view.Pressure = x
			fresh, err := core.RunFlatParallel(&view, op.fluid, op.options())
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
// iteration count (asserted on the full mesh) and ns/iteration; and next to
// it what an iteration cannot cost less than, one bare engine application on
// the vectors that solve applied the operator to. (Not on a smooth pressure
// field: the kernel's upwind select is a branch, and on Krylov directions it
// mispredicts — the same application costs about a third less on the
// mesh's own pressures.)
func BenchmarkKernelDataflowCG(b *testing.B) {
	d, wantIters := mesh.Dims{Nx: 24, Ny: 24, Nz: 32}, 471
	if testing.Short() {
		d, wantIters = mesh.Dims{Nx: 6, Ny: 6, Nz: 4}, 0
	}
	m, sys, fl, rhs := fvsimStep(b, d, refflux.FacesAll)
	solve := func(b *testing.B, op solver.Operator) int {
		_, st := solveCG(b, sys, op, rhs, 1e-8)
		if wantIters != 0 && st.Iterations != wantIters {
			b.Fatalf("solve took %d iterations, want %d", st.Iterations, wantIters)
		}
		return st.Iterations
	}
	b.Run("solve", func(b *testing.B) {
		op := NewDataflowOperator(m, sys, fl, refflux.FacesAll)
		defer op.Close()
		iters := 0
		for i := 0; i < b.N; i++ {
			iters += solve(b, op)
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iterations")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iteration")
	})
	b.Run("apply", func(b *testing.B) {
		op := &sampledOperator{DataflowOperator: NewDataflowOperator(m, sys, fl, refflux.FacesAll)}
		defer op.Close()
		solve(b, op)
		eng, err := core.Compile(m, op.fluid, op.options())
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
