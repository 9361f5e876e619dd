package umesh

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/physics"
	"repro/internal/solver"
)

// TestEveryOpBitIdenticalToReference is the differential test behind the
// oracle: not the op sequences CG happens to emit, but every solver.OpKind
// on its own — seeded random vectors and a scalar, under the
// identity and each rung of the ladder — run on the serial reference space and
// on PartOperator at parts {1, 2, 4, 8} × workers {1, 2}. Every vector and
// both reductions must agree to the bit.
func TestEveryOpBitIdenticalToReference(t *testing.T) {
	u := ladderMesh(t)
	sys := newUSystemFixture(t, u)
	rng := rand.New(rand.NewSource(16))
	var in [5][]float64
	for v := range in {
		in[v] = make([]float64, u.NumCells)
		for i := range in[v] {
			in[v][i] = rng.NormFloat64()
		}
	}
	a1 := rng.NormFloat64()
	type result struct {
		vecs [5][]float64
		r    [2]float64
	}
	// run executes the one-op program on sp from the seeded inputs.
	run := func(sp solver.ProgramSpace, kind solver.PrecondKind, k solver.OpKind) *result {
		var diag []float64
		if kind != solver.PrecondDefault {
			diag = sys.Diagonal()
		}
		if err := sp.SetPrecond(kind, diag); err != nil {
			t.Fatal(err)
		}
		res := &result{}
		for v := range in {
			res.vecs[v] = append([]float64(nil), in[v]...)
		}
		sp.Reserve(5)
		sp.Load2(0, res.vecs[0], 1, res.vecs[1])
		sp.Load2(2, res.vecs[2], 3, res.vecs[3])
		sp.Load2(4, res.vecs[4], 4, res.vecs[4])
		prog, err := sp.CompileProgram([]solver.ProgOp{{Kind: k, V1: 0, V2: 1, V3: 2, V4: 3, V5: 4,
			A1: &a1, R1: &res.r[0], R2: &res.r[1]}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prog.Run(); err != nil {
			t.Fatal(err)
		}
		for v := range res.vecs {
			sp.Store(res.vecs[v], solver.Vec(v))
		}
		return res
	}
	kinds := append([]solver.PrecondKind{solver.PrecondDefault}, solver.PrecondKinds()...)
	ref := newSerialReference(sys)
	want := map[solver.PrecondKind][]*result{}
	for _, kind := range kinds {
		for k := solver.OpApply; k <= solver.OpPrecondDot; k++ {
			want[kind] = append(want[kind], run(ref, kind, k))
		}
	}
	for _, levels := range []int{0, 1, 2, 3} {
		for _, workers := range []int{1, 2} {
			po, closeOp := residentFixtureOn(t, u, levels, workers)
			for _, kind := range kinds {
				for k := solver.OpApply; k <= solver.OpPrecondDot; k++ {
					if k == solver.OpCGStepPre && kind != solver.PrecondDefault && kind != solver.PrecondJacobi {
						continue // defined for elementwise preconditioners only
					}
					got, w := run(po, kind, k), want[kind][k]
					for i, r := range got.r {
						if math.Float64bits(r) != math.Float64bits(w.r[i]) {
							t.Errorf("%q op %d parts=%d workers=%d: R%d = %g, reference %g", kind, k, 1<<levels, workers, i+1, r, w.r[i])
						}
					}
					for v := range got.vecs {
						for i, x := range got.vecs[v] {
							if math.Float64bits(x) != math.Float64bits(w.vecs[v][i]) {
								t.Fatalf("%q op %d parts=%d workers=%d: V%d[%d] = %g, reference %g", kind, k, 1<<levels, workers, v+1, i, x, w.vecs[v][i])
							}
						}
					}
				}
			}
			closeOp()
		}
	}
}

// TestNonFiniteInputsRejected: a NaN/±Inf right-hand side is a breakdown in
// the set-up program on the partitioned space too (x untouched — the solve
// never gathers), and TransientSolver refuses non-finite well rates and
// initial pressures before any solve starts.
func TestNonFiniteInputsRejected(t *testing.T) {
	po, closeOp := residentFixture(t, 2, 2)
	defer closeOp()
	n := po.Size()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, x := probeVector(n, 1), probeVector(n, 2)
		b[n/2] = bad
		_, err := solver.CG(po, x, b, solver.Options{MaxIter: 5, PrecondDiag: po.Sys.Diagonal()})
		if !errors.Is(err, solver.ErrBreakdown) {
			t.Errorf("b[%d] = %v: err = %v, want ErrBreakdown", n/2, bad, err)
		}
		for i, want := range probeVector(n, 2) {
			if x[i] != want {
				t.Fatalf("b[%d] = %v: x[%d] touched", n/2, bad, i)
			}
		}
	}
	u, opts := transientFixture(t)
	ts, err := NewTransientSolver(u, nil, physics.DefaultFluid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := ts.Solve(TransientOptions{Steps: 1, Wells: []Well{{Cell: 0, Rate: bad}, {Cell: 1, Rate: 1}}}); err == nil {
			t.Errorf("well rate %v accepted", bad)
		}
		p0 := make([]float64, u.NumCells)
		p0[3] = bad
		if _, err := ts.Solve(TransientOptions{Steps: 1, Wells: opts.Wells, InitialPressure: p0}); err == nil {
			t.Errorf("initial pressure %v accepted", bad)
		}
	}
}
