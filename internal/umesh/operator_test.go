package umesh

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/solver"
)

// probeVector returns a deterministic pressure-scale probe.
func probeVector(n int, seed int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1e5 * math.Sin(float64(i+seed)*0.9)
	}
	return x
}

func newUSystemFixture(t *testing.T, u *Mesh) *USystem {
	t.Helper()
	sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPartOperatorBitIdenticalToHost(t *testing.T) {
	// The tentpole invariant: A·x through the partitioned runtime equals the
	// serial float64 host apply bit-for-bit, for every mesh builder, part
	// count 1–8 and worker count. CI runs this under -race.
	for name, u := range engineFixtures(t) {
		sys := newUSystemFixture(t, u)
		host := &UHostOperator{Sys: sys}
		x := probeVector(u.NumCells, 7)
		want := make([]float64, u.NumCells)
		if err := host.Apply(want, x); err != nil {
			t.Fatal(err)
		}
		for _, levels := range []int{0, 1, 2, 3} {
			part, err := RCB(u, levels)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				l, err := CompileLayout(u, part, workers)
				if err != nil {
					t.Fatal(err)
				}
				po, err := NewPartOperator(l, sys)
				if err != nil {
					l.Close()
					t.Fatal(err)
				}
				got := make([]float64, u.NumCells)
				err = po.Apply(got, x)
				l.Close()
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s parts=%d workers=%d: A·x[%d] differs: %g vs %g",
							name, part.NumParts, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// runProg compiles a one-off phase program on po and runs it once.
func runProg(tb testing.TB, po *PartOperator, ops ...solver.ProgOp) {
	tb.Helper()
	prog, err := po.CompileProgram(ops)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := prog.Run(); err != nil {
		tb.Fatal(err)
	}
}

func TestPartOperatorDiagonalAndDotBitIdentical(t *testing.T) {
	// The distributed dot (an OpDot program) must equal the canonical blocked
	// reduction — the partition-independent summation tree the serial
	// reference also uses — for every part count.
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys := newUSystemFixture(t, u)
	a := probeVector(u.NumCells, 3)
	b := probeVector(u.NumCells, 11)
	wantDot := newSerialReference(sys).Dot(a, b)
	plain := 0.0
	for i := range a {
		plain += a[i] * b[i]
	}
	if rel := math.Abs(wantDot-plain) / math.Abs(plain); rel > 1e-12 {
		t.Fatalf("canonical dot %g is not a rounding-level reordering of the plain dot %g (rel %g)",
			wantDot, plain, rel)
	}
	for _, levels := range []int{0, 2, 3} {
		part, err := RCB(u, levels)
		if err != nil {
			t.Fatal(err)
		}
		l, err := CompileLayout(u, part, 2)
		if err != nil {
			t.Fatal(err)
		}
		po, err := NewPartOperator(l, sys)
		if err != nil {
			l.Close()
			t.Fatal(err)
		}
		var dot float64
		po.Load2(0, a, 1, b)
		runProg(t, po, solver.ProgOp{Kind: solver.OpDot, V1: 0, V2: 1, R1: &dot})
		l.Close()
		if dot != wantDot {
			t.Fatalf("parts=%d: distributed dot %g != canonical serial reduction %g", part.NumParts, dot, wantDot)
		}
	}
}

func TestPartOperatorApplyAllocFree(t *testing.T) {
	// The acceptance check: once warm, Apply (scatter, the pre-compiled
	// one-op program, gather) runs entirely through persistent buffers and
	// pre-built plans — zero allocations.
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := CompileLayout(u, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	po, err := NewPartOperator(l, newUSystemFixture(t, u))
	if err != nil {
		t.Fatal(err)
	}
	x := probeVector(u.NumCells, 1)
	dst := make([]float64, u.NumCells)
	if err := po.Apply(dst, x); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := po.Apply(dst, x); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Apply allocates %.1f objects, want 0", allocs)
	}
}

// residentFixture builds a PartOperator on an RCB partition of the default
// radial mesh.
func residentFixture(tb testing.TB, levels, workers int) (*PartOperator, func()) {
	tb.Helper()
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return residentFixtureOn(tb, u, levels, workers)
}

// residentFixtureOn builds a PartOperator on an RCB partition of the given
// mesh.
func residentFixtureOn(tb testing.TB, u *Mesh, levels, workers int) (*PartOperator, func()) {
	tb.Helper()
	part, err := RCB(u, levels)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := CompileLayout(u, part, workers)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		l.Close()
		tb.Fatal(err)
	}
	po, err := NewPartOperator(l, sys)
	if err != nil {
		l.Close()
		tb.Fatal(err)
	}
	return po, l.Close
}

func TestResidentSolveMatchesSlicePathBitExact(t *testing.T) {
	// One recurrence, two spaces: CG compiled onto the PartOperator must
	// reproduce CG on the serial reference space (same matrix, dots through
	// the same canonical reduction) bit-for-bit — histories, iterations, and
	// the solution.
	po, closeOp := residentFixture(t, 2, 2)
	defer closeOp()
	diag := po.Sys.Diagonal()
	n := po.Size()
	b := make([]float64, n)
	b[0], b[n-1] = 2.0, -2.0

	opts := solver.Options{Tol: 1e-8, MaxIter: 800, PrecondDiag: diag}
	xSlice := make([]float64, n)
	stSlice, err := solver.CG(newSerialReference(po.Sys), xSlice, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	xRes := make([]float64, n)
	stRes, err := solver.CG(po, xRes, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stSlice.Iterations != stRes.Iterations {
		t.Fatalf("slice path took %d iterations, resident path %d", stSlice.Iterations, stRes.Iterations)
	}
	for k := range stSlice.History {
		if stSlice.History[k] != stRes.History[k] {
			t.Fatalf("history[%d] differs: slice %g, resident %g", k, stSlice.History[k], stRes.History[k])
		}
	}
	for i := range xSlice {
		if xSlice[i] != xRes[i] {
			t.Fatalf("solution[%d] differs: slice %g, resident %g", i, xSlice[i], xRes[i])
		}
	}
}

func TestResidentSolveScattersAndGathersOnce(t *testing.T) {
	// The part-resident acceptance metric: one scatter and one gather per
	// solve, however many iterations the solve takes.
	po, closeOp := residentFixture(t, 1, 1)
	diag := po.Sys.Diagonal()
	n := po.Size()
	b := make([]float64, n)
	b[0], b[n-1] = 2.0, -2.0
	x := make([]float64, n)
	st, err := solver.CG(po, x, b, solver.Options{Tol: 1e-8, MaxIter: 800, PrecondDiag: diag})
	closeOp()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations < 2 {
		t.Fatalf("degenerate solve: %+v", st)
	}
	if po.Scatters != 1 || po.Gathers != 1 {
		t.Errorf("%d iterations used %d scatters and %d gathers, want exactly 1 each",
			st.Iterations, po.Scatters, po.Gathers)
	}
	if po.Applications < st.Iterations {
		t.Errorf("%d applications for %d iterations", po.Applications, st.Iterations)
	}
	if po.Phase.Total() <= 0 {
		t.Errorf("no per-phase time recorded: %+v", po.Phase)
	}
}

// everyOpKind is one program holding each solver.OpKind once, over five
// distinct vectors and shared scalar cells.
func everyOpKind(a1, r1, r2 *float64) []solver.ProgOp {
	var ops []solver.ProgOp
	for k := solver.OpApply; k <= solver.OpPrecondDot; k++ {
		ops = append(ops, solver.ProgOp{Kind: k, V1: 0, V2: 1, V3: 2, V4: 3, V5: 4, A1: a1, R1: r1, R2: r2})
	}
	return ops
}

func TestResidentFusedPhasesAllocFree(t *testing.T) {
	// Running a compiled program must allocate nothing, whatever it holds:
	// one program with every OpKind, compiled once per installed rung (the
	// rung decides what OpPrecondDot expands to), plus a program of
	// the solver's set-up shape — and the scatter, gather and preconditioner
	// install around them once the vector pool is warm. Both application
	// shapes are covered: 4 parts (interior and frontier sweeps, the
	// frontier-phase block dot) and 1 part (one sweep cut at the reduction
	// blocks with the inner product fused into it); the row sweep and the
	// block-window kernels are also called directly, outside any plan.
	for _, levels := range []int{2, 0} {
		po, closeOp := residentFixture(t, levels, 2)
		defer closeOp()
		if _, err := po.CompileProgram([]solver.ProgOp{{Kind: solver.OpPrecondDot + 1}}); err == nil {
			t.Fatal("OpPrecondDot is no longer the last OpKind — extend everyOpKind")
		}
		diag := po.Sys.Diagonal()
		po.Reserve(5)
		n := po.Size()
		a := probeVector(n, 1)
		b := probeVector(n, 2)
		out := make([]float64, n)
		a1, one := 0.5, 1.0
		var r1, r2 float64
		kinds := append([]solver.PrecondKind{solver.PrecondDefault}, solver.PrecondKinds()...)
		for _, kind := range kinds {
			steps := map[string]func(){
				"Load2":      func() { po.Load2(0, a, 1, b) },
				"Store":      func() { po.Store(out, 0) },
				"SetPrecond": func() { _ = po.SetPrecond(kind, diag) },
				"sweep": func() {
					for _, op := range po.parts {
						var w []float64
						if len(op.frontier) == 0 {
							w = op.vecs[2]
						}
						op.sweep(op.interior, op.vecs[0], op.vecs[4], w, po.blockSums)
						op.sweep(op.frontier, op.vecs[0], op.vecs[4], nil, nil)
					}
				},
				"block windows": func() {
					for shard, op := range po.parts {
						op.blockDot(op.vecs[0], op.vecs[1], po.blockSums)
						po.shardCGStepPre(shard, 0, 1, 2, 3, 4, a1)
					}
				},
			}
			if err := po.SetPrecond(kind, diag); err != nil {
				t.Fatal(err)
			}
			for name, ops := range map[string][]solver.ProgOp{
				"every OpKind": everyOpKind(&a1, &r1, &r2),
				"set-up": {
					{Kind: solver.OpDot, V1: 1, V2: 1, R1: &r1},
					{Kind: solver.OpApply, V1: 4, V2: 0},
					{Kind: solver.OpSubAxpyDot, V1: 2, V2: 1, V3: 4, A1: &one, R1: &r2},
					{Kind: solver.OpPrecondDot, V1: 3, V2: 2, R1: &r1},
					{Kind: solver.OpCopy, V1: 4, V2: 3},
				},
			} {
				prog, err := po.CompileProgram(ops)
				if err != nil {
					t.Fatal(err)
				}
				steps[name] = func() {
					if _, err := prog.Run(); err != nil {
						t.Error(err)
					}
				}
			}
			for name, fn := range steps {
				fn() // warm up
				if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
					t.Errorf("parts=%d, %q rung: %s allocates %.1f objects per call, want 0", 1<<levels, kind, name, allocs)
				}
			}
		}
	}
}

// BenchmarkPartOperatorApply measures one resident operator application
// (fused send+interior, receive+frontier) across part and worker counts.
func BenchmarkPartOperatorApply(b *testing.B) {
	for _, levels := range []int{0, 1, 2} {
		for _, workers := range []int{1, 2} {
			b.Run(benchName(1<<levels, workers), func(b *testing.B) {
				po, closeOp := residentFixtureOn(b, benchRadial(b), levels, workers)
				defer closeOp()
				x := probeVector(po.Size(), 1)
				po.Load2(0, x, 1, x)
				prog, err := po.CompileProgram([]solver.ProgOp{{Kind: solver.OpApply, V1: 1, V2: 0}})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prog.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPartOperatorDot measures one fused resident inner product.
func BenchmarkPartOperatorDot(b *testing.B) {
	for _, levels := range []int{0, 1, 2} {
		for _, workers := range []int{1, 2} {
			b.Run(benchName(1<<levels, workers), func(b *testing.B) {
				po, closeOp := residentFixtureOn(b, benchRadial(b), levels, workers)
				defer closeOp()
				x := probeVector(po.Size(), 1)
				po.Load2(0, x, 1, x)
				var dot float64
				prog, err := po.CompileProgram([]solver.ProgOp{{Kind: solver.OpDot, V1: 0, V2: 1, R1: &dot}})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prog.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPartOperatorHostApply is the serial UHostOperator yardstick the
// resident application is compared against.
func BenchmarkPartOperatorHostApply(b *testing.B) {
	u := benchRadial(b)
	sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		b.Fatal(err)
	}
	host := &UHostOperator{Sys: sys}
	x := probeVector(u.NumCells, 1)
	dst := make([]float64, u.NumCells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := host.Apply(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUsolveJacobiStage times each step of one Jacobi-CG iteration on
// the 15360-cell benchmark mesh at 4 parts — the fused push+interior step, the
// frontier step with its inner product, the set-up dot, the fused CG tail and
// the direction update — the shard kernels called part by part on the
// benchmark goroutine, no pool: the per-stage sizing of a Jacobi iteration
// (docs/benchmarks.md) without a scratch harness.
func BenchmarkUsolveJacobiStage(b *testing.B) {
	po, closeOp := residentFixtureOn(b, benchRadial(b), 2, 1)
	defer closeOp()
	if err := po.SetPrecond(solver.PrecondJacobi, po.Sys.Diagonal()); err != nil {
		b.Fatal(err)
	}
	po.Reserve(5)
	n := po.Size()
	po.Load2(0, probeVector(n, 1), 1, probeVector(n, 2))
	po.Load2(2, probeVector(n, 3), 3, probeVector(n, 4))
	for _, st := range []struct {
		name string
		run  func(shard int)
	}{
		{"apply-interior", func(s int) { po.applySend(s, 0, 4, 1, true, false) }},
		{"apply-frontier", func(s int) { po.applyFrontier(s, 0, 4, 1, true, false) }},
		{"dot", func(s int) { po.shardDot(s, 0, 1) }},
		{"cgstep", func(s int) { po.shardCGStepPre(s, 2, 0, 1, 4, 3, 1e-3) }},
		{"xpby", func(s int) { po.shardXpby(s, 0, 3, 0.5) }},
	} {
		b.Run(st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for s := range po.parts {
					st.run(s)
				}
			}
		})
	}
}

func benchName(parts, workers int) string {
	return fmt.Sprintf("parts=%d/workers=%d", parts, workers)
}

func TestPartOperatorCommCounters(t *testing.T) {
	// Each Apply ships exactly the partition's static halo plan, counted as
	// two 32-bit words per float64 value, one message per neighbor pair.
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := CompileLayout(u, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	po, err := NewPartOperator(l, newUSystemFixture(t, u))
	if err != nil {
		t.Fatal(err)
	}
	var wantWords, wantMsgs uint64
	for me := 0; me < part.NumParts; me++ {
		wantWords += 2 * uint64(part.HaloCells(me))
		wantMsgs += uint64(len(part.recvPlan[me]))
	}
	x := probeVector(u.NumCells, 2)
	dst := make([]float64, u.NumCells)
	const apps = 4
	for k := 0; k < apps; k++ {
		if err := po.Apply(dst, x); err != nil {
			t.Fatal(err)
		}
	}
	if po.Applications != apps {
		t.Errorf("applications = %d, want %d", po.Applications, apps)
	}
	if po.Comm.HaloWords != apps*wantWords || po.Comm.Messages != apps*wantMsgs {
		t.Errorf("comm {words %d, msgs %d}, want {%d, %d}",
			po.Comm.HaloWords, po.Comm.Messages, apps*wantWords, apps*wantMsgs)
	}
}

func TestUHostOperatorSymmetricPositiveDefinite(t *testing.T) {
	// The frozen-mobility system must be SPD — what makes CG applicable.
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys := newUSystemFixture(t, u)
	op := &UHostOperator{Sys: sys}
	n := op.Size()
	ax := make([]float64, n)
	ay := make([]float64, n)
	for seed := 0; seed < 10; seed++ {
		x := probeVector(n, seed)
		y := probeVector(n, seed+100)
		if err := op.Apply(ax, x); err != nil {
			t.Fatal(err)
		}
		if err := op.Apply(ay, y); err != nil {
			t.Fatal(err)
		}
		var xay, yax, xax float64
		for i := 0; i < n; i++ {
			xay += x[i] * ay[i]
			yax += y[i] * ax[i]
			xax += x[i] * ax[i]
		}
		if math.Abs(xay-yax) > 1e-9*(math.Abs(xay)+1e-30) {
			t.Fatalf("seed %d: not symmetric: xᵀAy=%g yᵀAx=%g", seed, xay, yax)
		}
		if xax <= 0 {
			t.Fatalf("seed %d: not positive definite: xᵀAx=%g", seed, xax)
		}
	}
}

func TestPartOperatorIterationParityWithStructuredHost(t *testing.T) {
	// On a structured-converted mesh with the structured system's own
	// coefficients: the part-resident solve at parts=1 takes exactly as many
	// iterations as the canonical serial reference (the designed invariant),
	// and cross-validates against CG through solver.HostOperator — whose
	// inner products use the plain index-order sum, so its trajectory may
	// round differently: iterations agree within a small band and the
	// solutions to solver tolerance.
	sm, err := mesh.BuildDefault(mesh.Dims{Nx: 8, Ny: 6, Nz: 3})
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	ssys, err := solver.NewPressureSystem(sm, fl, 3600, refflux.FacesAll)
	if err != nil {
		t.Fatal(err)
	}
	u, err := FromStructured(sm, refflux.FacesAll)
	if err != nil {
		t.Fatal(err)
	}
	usys := &USystem{U: u, Mobility: ssys.Mobility, Accum: ssys.Accum}
	part, err := RCB(u, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := CompileLayout(u, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	po, err := NewPartOperator(l, usys)
	if err != nil {
		t.Fatal(err)
	}

	b, err := solver.WellSource(sm, 1, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(op solver.Operator, diag []float64) (int, []float64) {
		x := make([]float64, op.Size())
		st, err := solver.CG(op, x, b, solver.Options{Tol: 1e-8, MaxIter: 600, PrecondDiag: diag})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatal("solve did not converge")
		}
		return st.Iterations, x
	}
	refIts, refX := solve(newSerialReference(usys), usys.Diagonal())
	partIts, partX := solve(po, po.Sys.Diagonal())
	if refIts != partIts {
		t.Errorf("iteration parity broken: canonical serial reference %d its, part-resident operator %d its",
			refIts, partIts)
	}
	for i := range refX {
		if refX[i] != partX[i] {
			t.Fatalf("part-resident solution diverges from the canonical reference at cell %d: %g vs %g",
				i, partX[i], refX[i])
		}
	}
	hostIts, hostX := solve(&solver.HostOperator{Sys: ssys}, ssys.Diagonal())
	if d := hostIts - partIts; d < -5 || d > 5 {
		t.Errorf("structured host took %d its, part-resident %d — more than reordering noise", hostIts, partIts)
	}
	scale := 0.0
	for i := range hostX {
		if a := math.Abs(hostX[i]); a > scale {
			scale = a
		}
	}
	for i := range hostX {
		if math.Abs(hostX[i]-partX[i]) > 1e-6*scale {
			t.Fatalf("structured and part-resident solutions diverge at cell %d: %g vs %g",
				i, hostX[i], partX[i])
		}
	}
}

func TestNewUSystemValidation(t *testing.T) {
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	if _, err := NewUSystem(u, fl, 0, 0); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := NewUSystem(u, fl, 3600, 1.5); err == nil {
		t.Error("porosity > 1 accepted")
	}
	incomp := fl
	incomp.Compressibility = 0
	if _, err := NewUSystem(u, incomp, 3600, 0); err == nil {
		t.Error("zero accumulation accepted (matrix would be singular)")
	}
	bad := fl
	bad.Viscosity = 0
	if _, err := NewUSystem(u, bad, 3600, 0); err == nil {
		t.Error("invalid fluid accepted")
	}
}

func TestNewPartOperatorValidation(t *testing.T) {
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := CompileLayout(u, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	other, err := NewRadialMesh(RadialOptions{Rings: 3, BaseSectors: 4, R0: 1, DR: 2, Dz: 2, PermMD: 50})
	if err != nil {
		t.Fatal(err)
	}
	osys := newUSystemFixture(t, other)
	if _, err := NewPartOperator(l, osys); err == nil {
		t.Error("system of a different mesh accepted")
	}
	po, err := NewPartOperator(l, newUSystemFixture(t, u))
	if err != nil {
		t.Fatal(err)
	}
	short := make([]float64, 3)
	if err := po.Apply(short, short); err == nil {
		t.Error("wrong-length vectors accepted")
	}
}

// gridMesh hand-builds an nx×ny lattice of unit cells with seeded face
// conductances: periodic in both directions (a torus — every cell has degree
// exactly 4 when nx, ny ≥ 3) or open (ny = 1 gives a chain of degree ≤ 2).
func gridMesh(nx, ny int, periodic bool) *Mesh {
	n := nx * ny
	u := &Mesh{NumCells: n, Volume: make([]float64, n), Elev: make([]float64, n), Centroid: make([][3]float64, n)}
	rng := fuzzRand(uint64(n))
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			c := j*nx + i
			u.Volume[c] = 1 + rng.float()
			u.Centroid[c] = [3]float64{float64(i), float64(j), 0}
			face := func(b int) { u.Faces = append(u.Faces, Face{A: c, B: b, Trans: 1e-14 * (1 + rng.float())}) }
			if i+1 < nx {
				face(c + 1)
			} else if periodic {
				face(j * nx)
			}
			if j+1 < ny {
				face(c + nx)
			} else if periodic && ny > 1 {
				face(i)
			}
		}
	}
	u.buildAdjacency()
	return u
}

// sameBits reports a == b bit for bit, any two NaNs counting as equal (a NaN's
// payload is the hardware's business, which rows hold one is ours).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// assertRowStore checks a part operator's row store and segment lists against
// the engine's adjacency: every row is stored once, packed exactly when its
// degree is 4, with the premultiplied weights and neighbors in adjacency
// order; each part's runs are ascending, disjoint, homogeneous, expand to
// exactly ps.interior / ps.frontier, and — where the part has no frontier and
// the inner product is fused into the sweep — never cross a reduction block,
// with each block's last run (and no other) carrying the block's slot.
func assertRowStore(t *testing.T, po *PartOperator) {
	t.Helper()
	lam := po.Sys.Mobility
	for me, op := range po.parts {
		ps := po.l.parts[me]
		nQuad, nGen := 0, 0
		for i := 0; i < ps.nOwned; i++ {
			lo, hi := int(ps.rowStart[i]), int(ps.rowStart[i+1])
			if hi-lo == 4 {
				q := op.quad[nQuad]
				nQuad++
				for k := 0; k < 4; k++ {
					if q.t[k] != ps.nbrTrans[lo+k]*lam || q.li[k] != uint32(ps.nbrLocal[lo+k]) {
						t.Fatalf("part %d row %d: packed face %d is (%g, %d), adjacency has (%g, %d)",
							me, i, k, q.t[k], q.li[k], ps.nbrTrans[lo+k]*lam, ps.nbrLocal[lo+k])
					}
				}
				continue
			}
			row := op.gen[op.genStart[nGen]:op.genStart[nGen+1]]
			nGen++
			if len(row) != hi-lo {
				t.Fatalf("part %d row %d: general row holds %d faces, adjacency %d", me, i, len(row), hi-lo)
			}
			for k, e := range row {
				if e.t != ps.nbrTrans[lo+k]*lam || e.li != uint32(ps.nbrLocal[lo+k]) {
					t.Fatalf("part %d row %d: general face %d is (%g, %d), adjacency has (%g, %d)",
						me, i, k, e.t, e.li, ps.nbrTrans[lo+k]*lam, ps.nbrLocal[lo+k])
				}
			}
		}
		if nQuad != len(op.quad) || nGen+1 != len(op.genStart) || int(op.genStart[nGen]) != len(op.gen) {
			t.Fatalf("part %d: store holds %d packed rows, %d general row ends and %d general faces beyond its %d+%d rows",
				me, len(op.quad), len(op.genStart), len(op.gen), nQuad, nGen)
		}
		// rank of each row among the rows of its kind, recomputed here.
		rank := make([]int32, ps.nOwned)
		for i, q, g := 0, int32(0), int32(0); i < ps.nOwned; i++ {
			if ps.rowStart[i+1]-ps.rowStart[i] == 4 {
				rank[i], q = q, q+1
			} else {
				rank[i], g = g, g+1
			}
		}
		fused := len(ps.frontier) == 0
		for _, set := range []struct {
			name string
			segs []rowSeg
			rows []int32
		}{{"interior", op.interior, ps.interior}, {"frontier", op.frontier, ps.frontier}} {
			var rows []int32
			next, blk := int32(0), 0
			for si, s := range set.segs {
				if s.lo < next || s.n < 0 {
					t.Fatalf("part %d %s run %d [%d,+%d) overlaps or precedes row %d", me, set.name, si, s.lo, s.n, next)
				}
				next = s.lo + s.n
				for i := s.lo; i < next; i++ {
					if packed := ps.rowStart[i+1]-ps.rowStart[i] == 4; packed != s.packed {
						t.Fatalf("part %d %s run %d: row %d packed=%v inside a packed=%v run", me, set.name, si, i, packed, s.packed)
					}
					if want := s.first + (i - s.lo); rank[i] != want {
						t.Fatalf("part %d %s run %d: row %d has rank %d, run addresses %d", me, set.name, si, i, rank[i], want)
					}
					rows = append(rows, i)
				}
				if !fused || set.name == "frontier" {
					if s.flush != -1 {
						t.Fatalf("part %d %s run %d carries reduction slot %d outside a fused sweep", me, set.name, si, s.flush)
					}
					continue
				}
				for s.lo >= op.blkHi[blk] && s.n > 0 {
					blk++
				}
				if s.lo < op.blkLo[blk] || next > op.blkHi[blk] {
					t.Fatalf("part %d run %d [%d,%d) crosses reduction block [%d,%d)", me, si, s.lo, next, op.blkLo[blk], op.blkHi[blk])
				}
				last := si+1 == len(set.segs) || set.segs[si+1].lo >= op.blkHi[blk]
				if want := int32(-1); last {
					want = op.blkOut[blk]
					if s.flush != want {
						t.Fatalf("part %d run %d ends block %d with slot %d, want %d", me, si, blk, s.flush, want)
					}
				} else if s.flush != want {
					t.Fatalf("part %d run %d is inside block %d but carries slot %d", me, si, blk, s.flush)
				}
			}
			if len(rows) != len(set.rows) {
				t.Fatalf("part %d: %s runs cover %d rows, the engine lists %d", me, set.name, len(rows), len(set.rows))
			}
			for k := range rows {
				if rows[k] != set.rows[k] {
					t.Fatalf("part %d: %s runs reach row %d where the engine lists %d", me, set.name, rows[k], set.rows[k])
				}
			}
		}
	}
}

// assertSweepMatchesOracle applies the operator to x through the pool (push,
// interior sweep, frontier sweep) and holds every row to the oracle bit for
// bit; with finite x it also checks the fused ⟨w, A·x⟩ against the serial
// reference's canonical dot of the oracle rows. It returns the operator (its
// engine closed — for structural checks only) and the applied rows.
func assertSweepMatchesOracle(t *testing.T, sys *USystem, levels, workers int, x []float64, finite bool) (*PartOperator, []float64) {
	t.Helper()
	u := sys.U
	part, err := RCB(u, levels)
	if err != nil {
		t.Fatal(err)
	}
	l, err := CompileLayout(u, part, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	po, err := NewPartOperator(l, sys)
	if err != nil {
		t.Fatal(err)
	}
	assertRowStore(t, po)
	// The oracle: hostFluxRow row by row over the mesh's own adjacency.
	want, got := make([]float64, u.NumCells), make([]float64, u.NumCells)
	if err := (&UHostOperator{Sys: sys}).Apply(want, x); err != nil {
		t.Fatal(err)
	}
	if err := po.Apply(got, x); err != nil {
		t.Fatal(err)
	}
	for c := range want {
		if !sameBits(got[c], want[c]) {
			t.Fatalf("parts=%d workers=%d: row %d (degree %d) is %x, oracle %x",
				part.NumParts, workers, c, u.Degree(c), math.Float64bits(got[c]), math.Float64bits(want[c]))
		}
	}
	if !finite {
		return po, got
	}
	w := probeVector(u.NumCells, 3)
	var dot float64
	po.Reserve(3)
	po.Load2(0, x, 2, w)
	runProg(t, po, solver.ProgOp{Kind: solver.OpApplyDot, V1: 1, V2: 0, V3: 2, R1: &dot})
	if ref := newSerialReference(sys).Dot(w, want); math.Float64bits(dot) != math.Float64bits(ref) {
		t.Fatalf("parts=%d workers=%d: fused ⟨w, A·x⟩ = %x, canonical dot of the oracle rows %x",
			part.NumParts, workers, math.Float64bits(dot), math.Float64bits(ref))
	}
	return po, got
}

func TestRowStoreSweepBitIdenticalToHostFluxRow(t *testing.T) {
	// The packed sweep against the oracle's spelling of a row, on the
	// benchmark mesh, the ladder mesh and the badly scaled jittered systems,
	// at parts {1, 2, 4, 8} × workers {1, 2}.
	systems := map[string]*USystem{
		"bench":  newUSystemFixture(t, benchRadial(t)),
		"ladder": newUSystemFixture(t, ladderMesh(t)),
	}
	for seed := int64(1); seed <= 3; seed++ {
		ref, _ := jitteredSystem(t, seed)
		systems[fmt.Sprintf("jittered-%d", seed)] = ref.Operator.(*UHostOperator).Sys
	}
	for name, sys := range systems {
		x := probeVector(sys.U.NumCells, 7)
		for _, levels := range []int{0, 1, 2, 3} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s", name, benchName(1<<levels, workers)), func(t *testing.T) {
					assertSweepMatchesOracle(t, sys, levels, workers, x, true)
				})
			}
		}
	}
}

func TestRowStoreDegenerateShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		u      *Mesh
		levels []int
		check  func(t *testing.T, po *PartOperator)
	}{
		{"no degree-4 row", gridMesh(16, 1, false), []int{0, 1, 2}, func(t *testing.T, po *PartOperator) {
			for me, op := range po.parts {
				if len(op.quad) != 0 {
					t.Errorf("part %d packs %d rows of a chain", me, len(op.quad))
				}
			}
		}},
		{"only degree-4 rows", gridMesh(6, 5, true), []int{0, 1, 2}, func(t *testing.T, po *PartOperator) {
			for me, op := range po.parts {
				if len(op.gen) != 0 || len(op.quad) != po.l.parts[me].nOwned {
					t.Errorf("part %d keeps %d general faces of a torus, packs %d of %d rows",
						me, len(op.gen), len(op.quad), po.l.parts[me].nOwned)
				}
			}
		}},
		{"empty interior", gridMesh(8, 1, false), []int{2}, func(t *testing.T, po *PartOperator) {
			empty := 0
			for me, op := range po.parts {
				if len(po.l.parts[me].interior) == 0 && len(op.interior) == 0 {
					empty++
				}
			}
			if empty == 0 {
				t.Error("no part of the 2-cell-per-part chain has an empty interior set")
			}
		}},
		{"single-row run at a block edge", ladderMesh(t), []int{0}, func(t *testing.T, po *PartOperator) {
			op := po.parts[0]
			for _, s := range op.interior {
				if s.n == 1 && s.flush >= 0 {
					return
				}
			}
			t.Error("no single-row run ends a reduction block on the ladder mesh")
		}},
	} {
		sys := newUSystemFixture(t, tc.u)
		x := probeVector(tc.u.NumCells, 5)
		for _, levels := range tc.levels {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s", tc.name, benchName(1<<levels, workers)), func(t *testing.T) {
					po, _ := assertSweepMatchesOracle(t, sys, levels, workers, x, true)
					tc.check(t, po)
				})
			}
		}
	}
}

func TestRowStoreNonFiniteReachesOracleRows(t *testing.T) {
	// A NaN or ±Inf in x must reach dst in exactly the rows the oracle puts
	// it in — the packed records change how a row is read, not which
	// neighbors it reads.
	sys := newUSystemFixture(t, ladderMesh(t))
	n := sys.U.NumCells
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := probeVector(n, 9)
		x[0], x[n/3], x[n-1] = bad, bad, bad
		for _, levels := range []int{0, 2} {
			_, got := assertSweepMatchesOracle(t, sys, levels, 2, x, false)
			touched := 0
			for _, v := range got {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					touched++
				}
			}
			if touched < 3 || touched > 3*(1+sys.U.MaxDegree()) {
				t.Errorf("x with three %g entries: %d non-finite rows, want the entries and their neighbors", bad, touched)
			}
		}
	}
}
