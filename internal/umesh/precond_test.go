package umesh

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/physics"
	"repro/internal/solver"
)

// ladderMesh builds a mesh large enough that the depth-8 canonical blocks
// hold several cells each — the regime where the block-structured rungs
// (SSOR sweeps, AMG aggregates) actually have in-block couplings to work
// with. ~1080 cells → ~4-cell blocks.
func ladderMesh(t testing.TB) *Mesh {
	t.Helper()
	u, err := NewRadialMesh(RadialOptions{Rings: 24, BaseSectors: 12, RefineEvery: 6, R0: 1, DR: 3, Dz: 4, PermMD: 150})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// badDiagonalEntries are what no preconditioner diagonal may hold: each would
// invert to ±Inf, NaN or 0.
var badDiagonalEntries = []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)}

// ladderKinds are the operator-built rungs — the ones this PR adds above the
// existing Jacobi/default coverage.
func ladderKinds() []solver.PrecondKind {
	return []solver.PrecondKind{solver.PrecondSSOR, solver.PrecondChebyshev, solver.PrecondAMG}
}

func TestPrecondLadderGoldenAgainstSerial(t *testing.T) {
	// The ladder's extension of the PR-4 golden guarantee: for every rung,
	// the partitioned transient solve (resident preconditioner phases) is
	// bit-identical to the serial reference (the reference space's rungs) —
	// iteration counts, per-step residual histories, and the final field —
	// across parts {1,2,4,8} × workers {1,2,4}. CI runs this under -race.
	u := ladderMesh(t)
	opts := TransientOptions{
		Dt:    3600,
		Steps: 2,
		Wells: []Well{
			{Cell: u.WellIndex(), Rate: 2.0},
			{Cell: u.NumCells - 1, Rate: -2.0},
		},
	}
	fl := physics.DefaultFluid()
	for _, kind := range ladderKinds() {
		kopts := opts
		kopts.Solver.PrecondKind = kind
		want, err := RunTransientPartitioned(u, nil, fl, kopts)
		if err != nil {
			t.Fatalf("%s: serial reference: %v", kind, err)
		}
		for _, levels := range []int{0, 1, 2, 3} {
			part, err := RCB(u, levels)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				popts := kopts
				popts.Workers = workers
				got, err := RunTransientPartitioned(u, part, fl, popts)
				if err != nil {
					t.Fatalf("%s parts=%d workers=%d: %v", kind, part.NumParts, workers, err)
				}
				for s := range want.Steps {
					ws, gs := want.Steps[s], got.Steps[s]
					if gs.Iterations != ws.Iterations {
						t.Fatalf("%s parts=%d workers=%d step %d: %d iterations, serial took %d",
							kind, part.NumParts, workers, s, gs.Iterations, ws.Iterations)
					}
					for k := range ws.History {
						if gs.History[k] != ws.History[k] {
							t.Fatalf("%s parts=%d workers=%d step %d: residual history[%d] differs: %g vs %g",
								kind, part.NumParts, workers, s, k, gs.History[k], ws.History[k])
						}
					}
				}
				for i := range want.Pressure {
					if got.Pressure[i] != want.Pressure[i] {
						t.Fatalf("%s parts=%d workers=%d: final pressure[%d] differs: %g vs %g",
							kind, part.NumParts, workers, i, got.Pressure[i], want.Pressure[i])
					}
				}
			}
		}
	}
}

func TestPrecondLadderIterationOrdering(t *testing.T) {
	// Each rung up the ladder buys iterations on a mesh with multi-cell
	// canonical blocks, and AMG clears the headline ≥5× bar over Jacobi.
	u, err := NewRadialMesh(RadialOptions{Rings: 48, BaseSectors: 24, RefineEvery: 12, R0: 1, DR: 2, Dz: 3, PermMD: 150})
	if err != nil {
		t.Fatal(err)
	}
	opts := TransientOptions{
		Dt:    3600,
		Steps: 1,
		Wells: []Well{{Cell: u.WellIndex(), Rate: 2.0}, {Cell: u.NumCells - 1, Rate: -2.0}},
	}
	fl := physics.DefaultFluid()
	iters := map[solver.PrecondKind]int{}
	for _, kind := range solver.PrecondKinds() {
		kopts := opts
		kopts.Solver.PrecondKind = kind
		res, err := RunTransientPartitioned(u, nil, fl, kopts)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		iters[kind] = res.Steps[0].Iterations
	}
	t.Logf("iterations: jacobi=%d ssor=%d chebyshev=%d amg=%d",
		iters[solver.PrecondJacobi], iters[solver.PrecondSSOR], iters[solver.PrecondChebyshev], iters[solver.PrecondAMG])
	if iters[solver.PrecondSSOR] >= iters[solver.PrecondJacobi] {
		t.Errorf("SSOR (%d iterations) did not beat Jacobi (%d)", iters[solver.PrecondSSOR], iters[solver.PrecondJacobi])
	}
	if iters[solver.PrecondChebyshev] >= iters[solver.PrecondSSOR] {
		t.Errorf("Chebyshev (%d iterations) did not beat SSOR (%d)", iters[solver.PrecondChebyshev], iters[solver.PrecondSSOR])
	}
	if 5*iters[solver.PrecondAMG] > iters[solver.PrecondJacobi] {
		t.Errorf("AMG (%d iterations) is not ≥5× below Jacobi (%d)", iters[solver.PrecondAMG], iters[solver.PrecondJacobi])
	}
}

func TestAMGAggregationStructure(t *testing.T) {
	// The two-level hierarchy invariants everything else relies on: the
	// aggregation is a partition of the cells, member lists walk in canonical
	// order, every aggregate stays inside one canonical block (hence inside
	// one RCB part), and the coarse problem is a real coarsening.
	u := ladderMesh(t)
	sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := sys.amg()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := sys.amg(); again != lvl {
		t.Error("amg() is not memoized: second call rebuilt the level")
	}
	if lvl.nAgg <= 0 || lvl.nAgg >= u.NumCells {
		t.Fatalf("coarse size %d is not a coarsening of %d cells", lvl.nAgg, u.NumCells)
	}
	seen := make([]bool, u.NumCells)
	order := CanonicalOrder(u)
	blocks := canonicalBlocks(u.NumCells)
	blockOf := make([]int, u.NumCells)
	for bi := range blocks {
		lo, hi := int(blocks[bi]), len(order)
		if bi+1 < len(blocks) {
			hi = int(blocks[bi+1])
		}
		for k := lo; k < hi; k++ {
			blockOf[order[k]] = bi
		}
	}
	for a := 0; a < lvl.nAgg; a++ {
		if lvl.aggStart[a+1] <= lvl.aggStart[a] {
			t.Fatalf("aggregate %d is empty", a)
		}
		b0 := blockOf[lvl.aggCells[lvl.aggStart[a]]]
		prevPos := int32(-1)
		for k := lvl.aggStart[a]; k < lvl.aggStart[a+1]; k++ {
			c := lvl.aggCells[k]
			if seen[c] {
				t.Fatalf("cell %d appears in two aggregates", c)
			}
			seen[c] = true
			if lvl.aggOf[c] != int32(a) {
				t.Fatalf("cell %d: aggOf=%d but listed under %d", c, lvl.aggOf[c], a)
			}
			if blockOf[c] != b0 {
				t.Fatalf("aggregate %d spans canonical blocks %d and %d", a, b0, blockOf[c])
			}
			if lvl.pos[c] <= prevPos {
				t.Fatalf("aggregate %d members out of canonical order at cell %d", a, c)
			}
			prevPos = lvl.pos[c]
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("cell %d not aggregated", c)
		}
	}
	t.Logf("cells=%d aggregates=%d bandwidth=%d", u.NumCells, lvl.nAgg, lvl.bw)
}

// jitteredSystem builds a seeded badly-scaled SPD system: face conductances
// and accumulation coefficients spread over several orders of magnitude —
// the regime where diagonal scaling alone struggles and the ladder's
// symmetry requirements are easiest to violate by accident.
func jitteredSystem(t *testing.T, seed int64) (*solver.SliceSpace, []float64) {
	t.Helper()
	u, err := NewRadialMesh(RadialOptions{Rings: 12, BaseSectors: 8, RefineEvery: 4, R0: 1, DR: 3, Dz: 4, PermMD: 150})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range u.Faces {
		u.Faces[i].Trans *= math.Pow(10, 3*rng.Float64()-1.5)
	}
	sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sys.Accum {
		sys.Accum[i] *= math.Pow(10, 3*rng.Float64()-1.5)
	}
	return newSerialReference(sys), sys.Diagonal()
}

func TestPrecondLadderSymmetricPositive(t *testing.T) {
	// CG demands M⁻¹ symmetric positive definite. For every rung and several
	// seeded badly-scaled systems: uᵀM⁻¹v = vᵀM⁻¹u to rounding, and
	// rᵀM⁻¹r > 0 on random r.
	for _, seed := range []int64{1, 7, 42} {
		ref, diag := jitteredSystem(t, seed)
		n := ref.Size()
		rng := rand.New(rand.NewSource(seed * 1001))
		for _, kind := range ladderKinds() {
			pre, err := ref.Rung(kind, diag)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, kind, err)
			}
			uv, vv := make([]float64, n), make([]float64, n)
			zu, zv := make([]float64, n), make([]float64, n)
			for trial := 0; trial < 3; trial++ {
				for i := 0; i < n; i++ {
					uv[i] = rng.NormFloat64()
					vv[i] = rng.NormFloat64()
				}
				pre(zu, uv)
				pre(zv, vv)
				zuv, zvu, norm := 0.0, 0.0, 0.0
				for i := 0; i < n; i++ {
					zuv += zu[i] * vv[i]
					zvu += zv[i] * uv[i]
					norm += math.Abs(zu[i] * vv[i])
				}
				if math.Abs(zuv-zvu) > 1e-10*norm {
					t.Errorf("seed %d %s: M⁻¹ not symmetric: uᵀM⁻¹v=%g vs vᵀM⁻¹u=%g", seed, kind, zuv, zvu)
				}
				ruu := 0.0
				for i := 0; i < n; i++ {
					ruu += uv[i] * zu[i]
				}
				if ruu <= 0 {
					t.Errorf("seed %d %s: rᵀM⁻¹r = %g not positive", seed, kind, ruu)
				}
			}
		}
	}
}

func TestPrecondLadderMonotoneError(t *testing.T) {
	// The ladder property test: preconditioned CG minimizes the A-norm of
	// the error over nested Krylov spaces, so that norm is monotone
	// non-increasing across iterations — if and only if M⁻¹ is genuinely
	// symmetric positive definite. (The preconditioned residual √(rᵀz)
	// oscillates even for correct preconditioners; the error A-norm is the
	// quantity CG actually guarantees.) On seeded badly-scaled SPD systems,
	// every rung must preserve it.
	for _, seed := range []int64{3, 11, 29} {
		ref, diag := jitteredSystem(t, seed)
		n := ref.Size()
		rng := rand.New(rand.NewSource(seed * 17))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		e := make([]float64, n)
		ae := make([]float64, n)
		for _, kind := range ladderKinds() {
			pre, err := ref.Rung(kind, diag)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, kind, err)
			}
			// The rung built once, handed to every solve below through the
			// Rung field of a copy of the reference space.
			fixed := &solver.SliceSpace{Operator: ref.Operator, Dot: ref.Dot,
				Rung: func(solver.PrecondKind, []float64) (func(z, r []float64), error) { return pre, nil }}
			xstar := make([]float64, n)
			if st, err := solver.CG(fixed, xstar, b, solver.Options{Tol: 1e-12, MaxIter: 4000, PrecondKind: kind, PrecondDiag: diag}); err != nil || !st.Converged {
				t.Fatalf("seed %d %s: reference solve failed: %v", seed, kind, err)
			}
			// Re-run capped at k iterations for growing k and measure
			// ‖x_k − x*‖_A; stop once within 1e-5 of the start (beyond that
			// the comparison sinks into rounding noise).
			errNorm := func(x []float64) float64 {
				for i := range e {
					e[i] = x[i] - xstar[i]
				}
				if err := ref.Apply(ae, e); err != nil {
					t.Fatal(err)
				}
				s := 0.0
				for i := range e {
					s += e[i] * ae[i]
				}
				return math.Sqrt(s)
			}
			x := make([]float64, n)
			prev := errNorm(x)
			floor := prev * 1e-5
			for k := 1; k <= 400; k++ {
				for i := range x {
					x[i] = 0
				}
				// Tol below any reachable residual: the solve always runs
				// exactly k iterations (ErrNotConverged leaves x_k in x).
				_, _ = solver.CG(fixed, x, b, solver.Options{Tol: 1e-300, MaxIter: k, PrecondKind: kind, PrecondDiag: diag})
				cur := errNorm(x)
				if cur > prev*(1+1e-9) {
					t.Errorf("seed %d %s: error A-norm rose at iteration %d: %g → %g", seed, kind, k, prev, cur)
				}
				prev = cur
				if cur <= floor {
					break
				}
			}
			if prev > floor {
				t.Errorf("seed %d %s: error A-norm only fell to %g (start %g) in 400 iterations", seed, kind, prev, floor*1e5)
			}
		}
	}
}

func TestSetPrecondRejectsMisuse(t *testing.T) {
	// The resident install path's guard rails: ladder rungs demand a
	// diagonal, a known kind, and a canonical RCB partition.
	u := ladderMesh(t)
	sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	op, diag, closeOp, err := NewSystemSpace(u, part, physics.DefaultFluid(), sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOp()
	po := op.(*PartOperator)
	if err := po.SetPrecond("nonsense", diag); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, kind := range ladderKinds() {
		if err := po.SetPrecond(kind, nil); err == nil {
			t.Errorf("%s accepted without a diagonal", kind)
		}
	}
	if err := po.SetPrecond(solver.PrecondJacobi, nil); err == nil {
		t.Error("jacobi accepted without a diagonal")
	}
	if err := po.SetPrecond(solver.PrecondJacobi, diag[:3]); err == nil {
		t.Error("short diagonal accepted")
	}
	for _, v := range badDiagonalEntries {
		bad := append([]float64(nil), diag...)
		bad[5] = v
		if err := po.SetPrecond(solver.PrecondDefault, bad); err == nil || !strings.Contains(err.Error(), "at 5") {
			t.Errorf("diagonal entry %v: err = %v, want a rejection naming index 5", v, err)
		}
	}
	for _, kind := range ladderKinds() {
		if err := po.SetPrecond(kind, diag); err != nil {
			t.Errorf("%s rejected on a canonical partition: %v", kind, err)
		}
	}

	// A hand-built non-canonical partition (round-robin) must be refused for
	// block-structured rungs: its reduction blocks are not the canonical ones.
	rrPart := make([]int, u.NumCells)
	for c := range rrPart {
		rrPart[c] = c % 2
	}
	rr, err := buildPartition(u, rrPart, 2)
	if err != nil {
		t.Fatal(err)
	}
	opRR, diagRR, closeRR, err := NewSystemSpace(u, rr, physics.DefaultFluid(), sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeRR()
	poRR := opRR.(*PartOperator)
	for _, kind := range ladderKinds() {
		if err := poRR.SetPrecond(kind, diagRR); err == nil {
			t.Errorf("%s accepted a non-canonical partition", kind)
		}
	}
}

func TestSerialMakePrecondValidation(t *testing.T) {
	// The serial reference space's install path has the resident path's guard
	// rails (solver.CheckPrecond in front of the rung builder).
	u := ladderMesh(t)
	sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := newSerialReference(sys)
	diag := sys.Diagonal()
	if err := ref.SetPrecond("nonsense", diag); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ref.Rung(solver.PrecondJacobi, diag); err == nil {
		t.Error("the rung builder built a kind that is not operator-built")
	}
	for _, kind := range ladderKinds() {
		if err := ref.SetPrecond(kind, nil); err == nil {
			t.Errorf("%s accepted without a diagonal", kind)
		}
		if err := ref.SetPrecond(kind, diag[:3]); err == nil {
			t.Errorf("%s accepted a short diagonal", kind)
		}
	}
	if err := ref.SetPrecond(solver.PrecondJacobi, nil); err == nil {
		t.Error("jacobi accepted without a diagonal")
	}
	if err := ref.SetPrecond(solver.PrecondDefault, nil); err != nil {
		t.Fatalf("default kind without diagonal should install the identity, got %v", err)
	}
	for _, v := range badDiagonalEntries {
		bad := append([]float64(nil), diag...)
		bad[5] = v
		for _, kind := range ladderKinds() {
			if err := ref.SetPrecond(kind, bad); err == nil || !strings.Contains(err.Error(), "at 5") {
				t.Errorf("%s with diagonal entry %v: err = %v, want a rejection naming index 5", kind, v, err)
			}
		}
	}
}

// BenchmarkUsolvePrecond measures one partitioned implicit step per ladder
// rung on the 15360-cell benchmark mesh — the per-rung cost the usolve
// experiment records.
func BenchmarkUsolvePrecond(b *testing.B) {
	u := benchRadial(b)
	part, err := RCB(u, 2)
	if err != nil {
		b.Fatal(err)
	}
	fl := physics.DefaultFluid()
	for _, kind := range solver.PrecondKinds() {
		b.Run(string(kind), func(b *testing.B) {
			opts := TransientOptions{
				Dt:    3600,
				Steps: 1,
				Wells: []Well{
					{Cell: u.WellIndex(), Rate: 2.0},
					{Cell: u.NumCells - 1, Rate: -2.0},
				},
			}
			opts.Solver.PrecondKind = kind
			if _, err := RunTransientPartitioned(u, part, fl, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunTransientPartitioned(u, part, fl, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
