package umesh

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/solver"
)

// cg is one CompileCG and one Solve: on a itself when it is a
// solver.ProgramSpace, else on a SliceSpace around it.
func cg(a solver.Operator, x, b []float64, opts solver.Options) (*solver.Stats, error) {
	ps, ok := a.(solver.ProgramSpace)
	if !ok {
		ps = &solver.SliceSpace{Operator: a}
	}
	r, err := solver.CompileCG(ps, opts)
	if err != nil {
		return nil, err
	}
	return r.Solve(x, b, opts.Cancel)
}

// The tests hold PartOperator to the host operator as a solver.Operator;
// nothing else applies it to global slices, so the methods that make it one
// live here.
var _ solver.Operator = (*PartOperator)(nil)

// applyOps is the one-op program V(1) = A·V(0).
var applyOps = []solver.ProgOp{{Kind: solver.OpApply, V1: 1, V2: 0}}

// Apply computes dst = A·x on global slices: scatter, the one-op apply
// program, gather. Solves never come through here: they keep their vectors
// resident and pay the scatter and gather once per solve.
func (o *PartOperator) Apply(dst, x []float64) error {
	if len(dst) != len(x) || len(x) != o.Size() {
		return fmt.Errorf("umesh: partitioned operator size mismatch")
	}
	o.Reserve(2)
	prog, err := o.CompileProgram(applyOps)
	if err != nil {
		return err
	}
	o.Load2(0, x, 1, x)
	if _, err := prog.Run(); err != nil {
		return err
	}
	o.Store(dst, 1)
	return nil
}

// Diagonal is the system's diagonal.
func (o *PartOperator) Diagonal() []float64 { return o.Sys.Diagonal() }

// Total is the summed breakdown.
func (p PhaseSeconds) Total() float64 { return p.Exchange + p.Compute + p.Reduce }

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
	wantDot := ReferenceSpace(sys, nil).Dot(a, b)
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
		po.Reserve(2)
		po.Load2(0, a, 1, b)
		runProg(t, po, solver.ProgOp{Kind: solver.OpDot, V1: 0, V2: 1, R1: &dot})
		l.Close()
		if dot != wantDot {
			t.Fatalf("parts=%d: distributed dot %g != canonical serial reduction %g", part.NumParts, dot, wantDot)
		}
	}
}

func TestPartOperatorApplyAllocFree(t *testing.T) {
	// The acceptance check: once warm, an application on global slices
	// (scatter, a compiled one-op program, gather) runs entirely through
	// persistent buffers and pre-built plans — zero allocations.
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
	po.Reserve(2)
	prog, err := po.CompileProgram(applyOps)
	if err != nil {
		t.Fatal(err)
	}
	apply := func() {
		po.Load2(0, x, 1, x)
		if _, err := prog.Run(); err != nil {
			t.Error(err)
		}
		po.Store(dst, 1)
	}
	apply() // warm-up
	if allocs := testing.AllocsPerRun(50, apply); allocs != 0 {
		t.Errorf("steady-state application allocates %.1f objects, want 0", allocs)
	}
}

// TestResidentStreamsAreStaggered holds the resident layout (stripe) on the
// benchmark's mesh at 4 parts: every stream of a part that a Jacobi iteration
// walks — the reserved vectors, the inverse diagonal and the accumulation —
// starts at its own offset mod 4 KiB, at least 64 B from every other's,
// before and after Reserve grows the pool to CG's six vectors. Growing keeps
// every stream's contents and zeroes the new vectors; re-reserving allocates
// nothing.
func TestResidentStreamsAreStaggered(t *testing.T) {
	po, closeOp := residentFixtureOn(t, benchRadial(t), 2, 1)
	defer closeOp()
	if err := po.SetPrecond(solver.PrecondJacobi); err != nil {
		t.Fatal(err)
	}
	n := po.Size()
	po.Load2(0, probeVector(n, 1), 1, probeVector(n, 2))
	streamsOf := func(op *opPart) [][]float64 { return append([][]float64{op.accum, op.invDiag}, op.vecs...) }
	staggered := func(when string) {
		for me, op := range po.parts {
			streams := streamsOf(op)
			for i, a := range streams {
				for _, b := range streams[:i] {
					d := (uintptr(unsafe.Pointer(unsafe.SliceData(a))) - uintptr(unsafe.Pointer(unsafe.SliceData(b)))) % 4096
					if d < 64 || d > 4096-64 {
						t.Errorf("%s: part %d: stream %d starts %d B mod 4 KiB from an earlier one", when, me, i, d)
					}
				}
			}
		}
	}
	staggered("2 vectors")
	var want [][][]float64 // each part's streams as they are, then four new zero vectors
	for _, op := range po.parts {
		var kept [][]float64
		for _, s := range streamsOf(op) {
			kept = append(kept, slices.Clone(s))
		}
		for len(kept) < 2+6 {
			kept = append(kept, make([]float64, len(op.vecs[0])))
		}
		want = append(want, kept)
	}
	po.Reserve(6)
	staggered("6 vectors")
	for me, op := range po.parts {
		for i, s := range streamsOf(op) {
			if !slices.Equal(s, want[me][i]) {
				t.Fatalf("part %d: stream %d changed when Reserve grew the pool", me, i)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { po.Reserve(6) }); allocs != 0 {
		t.Errorf("re-reserving allocates %.1f objects, want 0", allocs)
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
	po.Reserve(2) // the vectors the one-op probes address
	return po, l.Close
}

func TestResidentSolveMatchesSlicePathBitExact(t *testing.T) {
	// One recurrence, two spaces: CG compiled onto the PartOperator must
	// reproduce CG on the serial reference space (same matrix, dots through
	// the same canonical reduction) bit-for-bit — histories, iterations, and
	// the solution.
	po, closeOp := residentFixture(t, 2, 2)
	defer closeOp()
	n := po.Size()
	b := make([]float64, n)
	b[0], b[n-1] = 2.0, -2.0

	opts := solver.Options{Tol: 1e-8, MaxIter: 800}
	xSlice := make([]float64, n)
	stSlice, err := cg(ReferenceSpace(po.Sys, nil), xSlice, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	xRes := make([]float64, n)
	stRes, err := cg(po, xRes, b, opts)
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

func TestZeroPrecondKindIsJacobi(t *testing.T) {
	// The zero PrecondKind is Jacobi, not a preconditioner of its own: on the
	// serial reference space and on a 2-part PartOperator it solves bit for
	// bit like PrecondJacobi — iterations, history and solution.
	po, closeOp := residentFixture(t, 1, 2)
	defer closeOp()
	n := po.Size()
	b := make([]float64, n)
	b[0], b[n-1] = 2.0, -2.0
	for name, space := range map[string]solver.ProgramSpace{"reference": ReferenceSpace(po.Sys, nil), "parts=2": po} {
		var sts [2]*solver.Stats
		var xs [2][]float64
		for i, kind := range []solver.PrecondKind{"", solver.PrecondJacobi} {
			cg, err := solver.CompileCG(space, solver.Options{Tol: 1e-8, MaxIter: 800, PrecondKind: kind})
			if err != nil {
				t.Fatal(err)
			}
			xs[i] = make([]float64, n)
			if sts[i], err = cg.Solve(xs[i], b, nil); err != nil {
				t.Fatal(err)
			}
		}
		if sts[0].Iterations != sts[1].Iterations || !slices.Equal(sts[0].History, sts[1].History) || !slices.Equal(xs[0], xs[1]) {
			t.Errorf("%s: the zero kind took %d iterations, jacobi %d, or their histories or solutions differ",
				name, sts[0].Iterations, sts[1].Iterations)
		}
	}
}

func TestResidentSolveScattersAndGathersOnce(t *testing.T) {
	// The part-resident acceptance metric: one scatter and one gather per
	// solve, however many iterations the solve takes.
	po, closeOp := residentFixture(t, 1, 1)
	n := po.Size()
	b := make([]float64, n)
	b[0], b[n-1] = 2.0, -2.0
	x := make([]float64, n)
	st, err := cg(po, x, b, solver.Options{Tol: 1e-8, MaxIter: 800})
	closeOp()
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations < 2 {
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
	// shapes are covered: 4 parts (a halo push, then the sweep) and 1 part
	// (the sweep alone), the inner product fused into the sweep; the halo
	// push, the row sweep and the block-window kernels are also called
	// directly, outside any plan.
	for _, levels := range []int{2, 0} {
		po, closeOp := residentFixture(t, levels, 2)
		defer closeOp()
		if _, err := po.CompileProgram([]solver.ProgOp{{Kind: solver.OpPrecondDot + 1}}); err == nil {
			t.Fatal("OpPrecondDot is no longer the last OpKind — extend everyOpKind")
		}
		po.Reserve(5)
		n := po.Size()
		a := probeVector(n, 1)
		b := probeVector(n, 2)
		out := make([]float64, n)
		a1, one := 0.5, 1.0
		var r1, r2 float64
		for _, kind := range solver.PrecondKinds() {
			steps := map[string]func(){
				"Load2":      func() { po.Load2(0, a, 1, b) },
				"Store":      func() { po.Store(out, 0) },
				"SetPrecond": func() { _ = po.SetPrecond(kind) },
				"sweep": func() {
					for shard, op := range po.parts {
						po.sendHalo(shard, 0)
						op.sweep(op.vecs[0], op.vecs[4], op.vecs[2], po.blockSums)
					}
				},
				"block windows": func() {
					for shard := range po.parts {
						po.shardDot(shard, 0, 1)
						po.shardCGStepPre(shard, 0, 1, 2, 3, 4, a1)
					}
				},
			}
			if err := po.SetPrecond(kind); err != nil {
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
// (the halo push, then the row sweep) across part and worker counts.
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
// the 15360-cell benchmark mesh at 4 parts — the halo push, the row sweep
// with its fused inner product (apply), the set-up dot, the fused CG tail
// (cgstep) and the direction update (xpby); each -go case is the same kernel
// on its Go loop alone, the whole path off amd64 — the shard kernels called
// part by part on the benchmark goroutine, no pool: the per-stage sizing of a
// Jacobi iteration (docs/benchmarks.md) without a scratch harness.
func BenchmarkUsolveJacobiStage(b *testing.B) {
	po, closeOp := residentFixtureOn(b, benchRadial(b), 2, 1)
	defer closeOp()
	if err := po.SetPrecond(solver.PrecondJacobi); err != nil {
		b.Fatal(err)
	}
	po.Reserve(5)
	n := po.Size()
	po.Load2(0, probeVector(n, 1), 1, probeVector(n, 2))
	po.Load2(2, probeVector(n, 3), 3, probeVector(n, 4))
	for _, st := range []struct {
		name   string
		run    func(shard int)
		goOnly bool // the Go loops alone, as off amd64
	}{
		{"push", func(s int) { po.sendHalo(s, 0) }, false},
		{"apply", func(s int) { po.applyRows(s, 0, 4, 1, true, false) }, false},
		{"apply-go", func(s int) { po.applyRows(s, 0, 4, 1, true, false) }, true},
		{"dot", func(s int) { po.shardDot(s, 0, 1) }, false},
		{"cgstep", func(s int) { po.shardCGStepPre(s, 2, 0, 1, 4, 3, 1e-3) }, false},
		{"cgstep-go", func(s int) { po.shardCGStepPre(s, 2, 0, 1, 4, 3, 1e-3) }, true},
		{"xpby", func(s int) { po.shardXpby(s, 0, 3, 0.5) }, false},
		{"xpby-go", func(s int) { po.shardXpby(s, 0, 3, 0.5) }, true},
	} {
		b.Run(st.name, func(b *testing.B) {
			if st.goOnly {
				defer func(v bool) { vectorRows = v }(vectorRows)
				vectorRows = false
			}
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
	wantWords, wantMsgs := cutFaceComm(u, part)
	wantWords *= 2
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
	// On a structured-converted mesh: the part-resident solve at parts=1
	// takes exactly as many iterations as the canonical serial reference (the
	// designed invariant), and cross-validates against CG through the
	// structured stencil oracle — whose inner products use the plain
	// index-order sum and whose rows sum in direction order, so its trajectory
	// may round differently: iterations agree within a small band and the
	// solutions to solver tolerance.
	sm, err := mesh.BuildDefault(mesh.Dims{Nx: 8, Ny: 6, Nz: 3})
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	u, err := FromStructured(sm, refflux.FacesAll)
	if err != nil {
		t.Fatal(err)
	}
	usys, err := NewUSystem(u, fl, 3600, 0)
	if err != nil {
		t.Fatal(err)
	}
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

	// A unit injector column at (1, 1), balanced by a producer column at the
	// mirrored corner.
	d := sm.Dims
	b := make([]float64, d.Cells())
	for z := 0; z < d.Nz; z++ {
		b[sm.Index(1, 1, z)] += 1 / float64(d.Nz)
		b[sm.Index(d.Nx-2, d.Ny-2, z)] -= 1 / float64(d.Nz)
	}
	solve := func(op solver.Operator) (int, []float64) {
		x := make([]float64, op.Size())
		st, err := cg(op, x, b, solver.Options{Tol: 1e-8, MaxIter: 600})
		if err != nil {
			t.Fatal(err)
		}
		return st.Iterations, x
	}
	refIts, refX := solve(ReferenceSpace(usys, nil))
	partIts, partX := solve(po)
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
	st := newStructuredStencil(sm, fl, 3600, refflux.FacesAll)
	hostIts, hostX := solve(st)
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
	_, su := structuredFixture(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 2})
	if _, err := NewUSystem(su, fl, 3600, DefaultPorosity); err == nil {
		t.Error("a constant porosity accepted on a mesh with per-cell porosity")
	}
	su.Porosity[4] = 0
	if _, err := NewUSystem(su, fl, 3600, 0); err == nil {
		t.Error("a zero per-cell porosity accepted")
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
	// NaN <= 0 is false: a NaN accumulation must be caught by name, not
	// fail later as an anonymous preconditioner-diagonal error.
	if _, err := NewUSystem(u, fl, math.NaN(), 0); err == nil || !strings.Contains(err.Error(), "cell 0 ") {
		t.Errorf("NaN dt: NewUSystem = %v, want an accumulation error naming cell 0", err)
	}
	u.Volume[5] = 1e308 // finite, but its accumulation overflows to +Inf
	if _, err := NewUSystem(u, fl, 3600, 0); err == nil || !strings.Contains(err.Error(), "cell 5 ") {
		t.Errorf("overflowing volume: NewUSystem = %v, want an accumulation error naming cell 5", err)
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

// assertRowStore checks a part operator's row store against the engine's
// adjacency: the part's reduction blocks tile its owned rows in order, each
// has its ⌈n/4⌉ quads and exactly the slots they take; a quad's lanes hold
// its rows' degrees (0 past the block's end) and it is as wide as its widest
// row, at least four; slot k of lane r holds row r's premultiplied face k in
// adjacency order, and every slot past a lane's degree is a pad (weight +0,
// neighbor 0).
func assertRowStore(t *testing.T, po *PartOperator) {
	t.Helper()
	lam := po.Sys.Mobility
	for me, op := range po.parts {
		ps := po.l.parts[me]
		next := 0
		for bi, b := range op.blocks {
			if b.lo != next || b.n < 1 {
				t.Fatalf("part %d block %d [%d,+%d) does not start at row %d", me, bi, b.lo, b.n, next)
			}
			next = b.lo + b.n
			if want := (b.n + 3) / 4; len(b.heads) != want {
				t.Fatalf("part %d block %d of %d rows has %d quads, want %d", me, bi, b.n, len(b.heads), want)
			}
			slot := 0
			for qi, h := range b.heads {
				width := uint32(4)
				for r, deg := range h.deg {
					i := b.lo + 4*qi + r
					want := uint32(0)
					if i < next {
						want = uint32(ps.rowStart[i+1] - ps.rowStart[i])
					}
					if deg != want {
						t.Fatalf("part %d block %d quad %d lane %d: degree %d, want %d", me, bi, qi, r, deg, want)
					}
					width = max(width, deg)
					for k := range min(h.width, uint32(len(b.slots)-slot)) {
						s := b.slots[slot+int(k)]
						if k >= deg {
							if math.Float64bits(s.t[r]) != 0 || s.li[r] != 0 {
								t.Fatalf("part %d row %d: pad slot %d is (%g, %d), want (+0, 0)", me, i, k, s.t[r], s.li[r])
							}
							continue
						}
						j := ps.rowStart[i] + int32(k)
						if s.t[r] != ps.nbrTrans[j]*lam || s.li[r] != uint32(ps.nbrLocal[j]) {
							t.Fatalf("part %d row %d: face %d is (%g, %d), adjacency has (%g, %d)",
								me, i, k, s.t[r], s.li[r], ps.nbrTrans[j]*lam, ps.nbrLocal[j])
						}
					}
				}
				if h.width != width {
					t.Fatalf("part %d block %d quad %d is %d slots wide, want %d", me, bi, qi, h.width, width)
				}
				slot += int(h.width)
			}
			if slot != len(b.slots) {
				t.Fatalf("part %d block %d: its quads take %d slots, it holds %d", me, bi, slot, len(b.slots))
			}
		}
		if next != ps.nOwned {
			t.Fatalf("part %d: blocks end at row %d, the part owns %d", me, next, ps.nOwned)
		}
	}
}

// pureQuads counts a part's quads of four degree-4 rows.
func pureQuads(op *opPart) int {
	n := 0
	for _, b := range op.blocks {
		for _, h := range b.heads {
			if h.deg == [4]uint32{4, 4, 4, 4} {
				n++
			}
		}
	}
	return n
}

// assertSweepMatchesOracle applies the operator to x through the pool (halo
// push, then the row sweep) and holds every row to the oracle bit for
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
	if ref := ReferenceSpace(sys, nil).Dot(w, want); math.Float64bits(dot) != math.Float64bits(ref) {
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
				if n := pureQuads(op); n != 0 {
					t.Errorf("part %d has %d pure quads of a chain", me, n)
				}
			}
		}},
		{"only degree-4 rows", gridMesh(48, 32, true), []int{0, 1, 2}, func(t *testing.T, po *PartOperator) {
			for me, op := range po.parts {
				whole, wide := 0, 0
				for _, b := range op.blocks {
					whole += b.n / 4
					wide += len(b.slots) - 4*len(b.heads)
				}
				if n := pureQuads(op); n != whole || wide != 0 {
					t.Errorf("part %d of a torus: %d pure quads of %d whole ones, %d slots past four a quad", me, n, whole, wide)
				}
			}
		}},
		{"every row reads a halo cell", gridMesh(8, 1, false), []int{2}, func(t *testing.T, po *PartOperator) {
			allHalo := func(ps *partLayout) bool {
				for i := int32(0); i < int32(ps.nOwned); i++ {
					nbrs := ps.nbrLocal[ps.rowStart[i]:ps.rowStart[i+1]]
					if !slices.ContainsFunc(nbrs, func(li int32) bool { return li >= int32(ps.nOwned) }) {
						return false
					}
				}
				return true
			}
			if !slices.ContainsFunc(po.l.parts, allHalo) {
				t.Error("no part of the 2-cell-per-part chain has every row reading a halo cell")
			}
		}},
		{"partial quad at a block edge", ladderMesh(t), []int{0}, func(t *testing.T, po *PartOperator) {
			op := po.parts[0]
			for _, b := range op.blocks {
				if b.n%4 != 0 {
					return
				}
			}
			t.Error("no reduction block of the ladder mesh ends in a partial quad")
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
