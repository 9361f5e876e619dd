package umesh

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// denseSolve solves a·x = b by Gaussian elimination with partial pivoting, in
// place — the textbook routine, nothing shared with the code under test.
func denseSolve(a [][]float64, b []float64) []float64 {
	n := len(b)
	for k := 0; k < n; k++ {
		piv := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[piv][k]) {
				piv = i
			}
		}
		a[k], a[piv] = a[piv], a[k]
		b[k], b[piv] = b[piv], b[k]
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			for j := k; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
			b[i] -= f * b[k]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		acc := b[i]
		for j := i + 1; j < n; j++ {
			acc -= a[i][j] * x[j]
		}
		x[i] = acc / a[i][i]
	}
	return x
}

// textbookBlockSSOR is the rung's definition executed literally, from the
// USystem alone: per canonical block B (cells in canonical order) assemble the
// dense in-block matrix A_B from the faces, split it as D + L_B + L_Bᵀ, form
// M_B = (D+L_B)·D⁻¹·(D+L_Bᵀ) as a dense product and solve M_B·z_B = r_B by
// elimination. No triangular sweep, no index list.
func textbookBlockSSOR(sys *USystem, r []float64) []float64 {
	u := sys.U
	order, blocks := CanonicalOrder(u), canonicalBlocks(u.NumCells)
	z := make([]float64, u.NumCells)
	at := make(map[int]int) // cell → row of the current block
	for bi := range blocks {
		lo, hi := blockSpan(blocks, bi, u.NumCells)
		cells := order[lo:hi]
		nb := len(cells)
		clear(at)
		for k, c := range cells {
			at[int(c)] = k
		}
		a := make([][]float64, nb)
		for k, c := range cells {
			a[k] = make([]float64, nb)
			a[k][k] = sys.Accum[c]
		}
		// The diagonal carries every face of the cell (it is A's diagonal);
		// only couplings with both ends in the block enter L_B.
		for _, f := range u.Faces {
			t := f.Trans * sys.Mobility
			ka, inA := at[f.A]
			kb, inB := at[f.B]
			if inA {
				a[ka][ka] += t
			}
			if inB {
				a[kb][kb] += t
			}
			if inA && inB {
				a[ka][kb] -= t
				a[kb][ka] -= t
			}
		}
		m := make([][]float64, nb)
		for i := range m {
			m[i] = make([]float64, nb)
			for j := range m[i] {
				// M_ij = Σ_k (D+L)_ik · (1/d_k) · (D+Lᵀ)_kj, with (D+L)_ik = a_ik
				// for k ≤ i and (D+Lᵀ)_kj = a_kj for k ≤ j.
				for k := 0; k <= min(i, j); k++ {
					m[i][j] += a[i][k] / a[k][k] * a[k][j]
				}
			}
		}
		rb := make([]float64, nb)
		for k, c := range cells {
			rb[k] = r[c]
		}
		for k, v := range denseSolve(m, rb) {
			z[cells[k]] = v
		}
	}
	return z
}

func TestBlockSSORMatchesDenseTextbook(t *testing.T) {
	// Both realizations of the SSOR rung call one sweep over one kind of index
	// list, so the golden serial↔partitioned test proves the rung independent
	// of the layout but can no longer see a wrong sweep. This can: the dense
	// textbook solve above shares nothing with it, and the reference rung and
	// the resident rung on 1, 2 and 4 parts must all match it to rounding on
	// the 15360-cell radial mesh (60-cell blocks).
	u := benchRadial(t)
	sys := newUSystemFixture(t, u)
	diag := sys.Diagonal()
	r := probeVector(u.NumCells, 5)
	want := textbookBlockSSOR(sys, r)
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	check := func(name string, got []float64) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*scale {
				t.Fatalf("%s: z[%d] = %g, textbook block-SSOR gives %g", name, i, got[i], want[i])
			}
		}
	}
	pre, err := newSerialReference(sys).Rung(solver.PrecondSSOR, diag)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, u.NumCells)
	pre(got, r)
	check("reference rung", got)
	for _, levels := range []int{0, 1, 2} {
		po, closeOp := residentFixtureOn(t, u, levels, 2)
		if err := po.SetPrecond(solver.PrecondSSOR, diag); err != nil {
			t.Fatal(err)
		}
		po.Load2(0, r, 1, r)
		var rz float64
		runProg(t, po, solver.ProgOp{Kind: solver.OpPrecondDot, V1: 1, V2: 0, R1: &rz})
		po.Store(got, 1)
		closeOp()
		check(fmt.Sprintf("parts=%d", 1<<levels), got)
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

func TestPrecondLadderRecordedIterationCounts(t *testing.T) {
	// The pinned ladder: the benchmark radial mesh, three backward-Euler steps
	// of 3600 s to 1e-8 between a ±2 kg/s well pair, takes exactly these
	// serial iteration counts per rung — a fixed point no layout or fusion
	// change may move (serve's rungIterationFactor prior is their ratios).
	// The counts are amd64 values: the umesh float64 kernels carry no explicit
	// anti-FMA roundings, so an architecture that contracts a·b + c may
	// converge an iteration earlier or later.
	ladder := []struct {
		kind       solver.PrecondKind
		iterations int
	}{
		{solver.PrecondJacobi, 1365},
		{solver.PrecondSSOR, 795},
		{solver.PrecondChebyshev, 369},
		{solver.PrecondAMG, 147},
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("the ladder was recorded on amd64, this is %s", runtime.GOARCH)
	}
	if raceEnabled {
		t.Skip("four serial single-goroutine solves: nothing for the race detector to watch, and ~20 s instrumented")
	}
	u := benchRadial(t)
	opts := TransientOptions{
		Dt:    3600,
		Steps: 3,
		Wells: []Well{{Cell: u.WellIndex(), Rate: 2.0}, {Cell: u.NumCells - 1, Rate: -2.0}},
	}
	opts.Solver.Tol = 1e-8
	for _, rung := range ladder {
		opts.Solver.PrecondKind = rung.kind
		res, err := RunTransientPartitioned(u, nil, physics.DefaultFluid(), opts)
		if err != nil {
			t.Fatalf("%s: %v", rung.kind, err)
		}
		got := 0
		for _, st := range res.Steps {
			got += st.Iterations
		}
		if got != rung.iterations {
			t.Errorf("%s took %d iterations, the pinned ladder says %d", rung.kind, got, rung.iterations)
		}
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
	bw := 0
	for i := 0; i < lvl.nAgg; i++ {
		if w := lvl.rowStart[i+1] - lvl.rowStart[i] - 1; w > bw {
			bw = w
		}
	}
	t.Logf("cells=%d aggregates=%d max band=%d envelope entries=%d (dense band %d) factor bytes=%d",
		u.NumCells, lvl.nAgg, bw, len(lvl.fac), lvl.nAgg*(bw+1), 8*len(lvl.fac))
}

// bandOracle is the textbook coarse level the skyline must reproduce bit for
// bit: the Galerkin matrix assembled into dense banded lower storage
// (row-major n×(bw+1), fac[i*(bw+1) + j−i+bw] = L[i][j]), the row-oriented
// inner-product Cholesky over the whole band, and forward/backward
// substitution as running differences in ascending column order. It shares
// only the aggregation with the code under test.
type bandOracle struct {
	n, bw int
	fac   []float64
}

func newBandOracle(sys *USystem, aggOf []int32, nAgg int) (*bandOracle, error) {
	o := &bandOracle{n: nAgg}
	for _, f := range sys.U.Faces {
		if d := int(aggOf[f.A] - aggOf[f.B]); d > o.bw {
			o.bw = d
		} else if -d > o.bw {
			o.bw = -d
		}
	}
	w := o.bw + 1
	o.fac = make([]float64, nAgg*w)
	at := func(i, j int32) *float64 { return &o.fac[int(i)*w+int(j-i)+o.bw] }
	for c := 0; c < sys.U.NumCells; c++ {
		*at(aggOf[c], aggOf[c]) += sys.Accum[c]
	}
	for _, f := range sys.U.Faces {
		ia, ib := aggOf[f.A], aggOf[f.B]
		if ia == ib {
			continue
		}
		t := f.Trans * sys.Mobility
		*at(ia, ia) += t
		*at(ib, ib) += t
		if ia < ib {
			ia, ib = ib, ia
		}
		*at(ia, ib) -= t
	}
	for i := 0; i < nAgg; i++ {
		jmin := i - o.bw
		if jmin < 0 {
			jmin = 0
		}
		for j := jmin; j <= i; j++ {
			acc := o.fac[i*w+j-i+o.bw]
			for k := jmin; k < j; k++ {
				acc -= o.fac[i*w+k-i+o.bw] * o.fac[j*w+k-j+o.bw]
			}
			if j < i {
				o.fac[i*w+j-i+o.bw] = acc / o.fac[j*w+o.bw]
			} else {
				if acc <= 0 || math.IsNaN(acc) {
					return nil, fmt.Errorf("oracle: pivot %g at aggregate %d", acc, i)
				}
				o.fac[i*w+o.bw] = math.Sqrt(acc)
			}
		}
	}
	return o, nil
}

// l returns L[i][j], zero outside the band.
func (o *bandOracle) l(i, j int) float64 {
	if j > i || i-j > o.bw {
		return 0
	}
	return o.fac[i*(o.bw+1)+j-i+o.bw]
}

func (o *bandOracle) solve(rc, ec []float64) {
	for i := 0; i < o.n; i++ {
		acc := rc[i]
		for j := max(i-o.bw, 0); j < i; j++ {
			acc -= o.l(i, j) * ec[j]
		}
		ec[i] = acc / o.l(i, i)
	}
	for i := o.n - 1; i >= 0; i-- {
		acc := ec[i]
		for j := i + 1; j <= min(i+o.bw, o.n-1); j++ {
			acc -= o.l(j, i) * ec[j]
		}
		ec[i] = acc / o.l(i, i)
	}
}

func TestAMGSkylineMatchesDenseBandOracle(t *testing.T) {
	// The serial and partitioned paths share solveCoarse, so no serial↔parts
	// comparison can see its arithmetic drift; this is the independent check.
	// On the benchmark mesh, the ladder mesh and three badly-scaled seeded
	// systems, every entry of the skyline factor and every word of a coarse
	// solve equals the dense-band oracle's bit for bit, nothing inside the
	// band but outside the skyline is non-zero, and the solve really solves.
	systems := map[string]*USystem{}
	for name, u := range map[string]*Mesh{"bench": benchRadial(t), "ladder": ladderMesh(t)} {
		sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
		if err != nil {
			t.Fatal(err)
		}
		systems[name] = sys
	}
	for _, seed := range []int64{1, 7, 42} {
		ref, _ := jitteredSystem(t, seed)
		systems[fmt.Sprintf("jittered-%d", seed)] = ref.Operator.(*UHostOperator).Sys
	}
	for name, sys := range systems {
		lvl, err := sys.amg()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := newBandOracle(sys, lvl.aggOf, lvl.nAgg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := lvl.nAgg
		t.Logf("%s: aggregates=%d band=%d envelope entries=%d (dense band %d)", name, n, want.bw, len(lvl.fac), n*(want.bw+1))
		if len(lvl.fac) > n*(want.bw+1) {
			t.Errorf("%s: skyline holds %d entries, more than the %d of the dense band", name, len(lvl.fac), n*(want.bw+1))
		}
		for i := 0; i < n; i++ {
			for j := max(i-want.bw, 0); j <= i; j++ {
				got := 0.0
				if row := lvl.fac[lvl.rowStart[j]:lvl.rowStart[j+1]]; i-j < len(row) {
					got = row[i-j]
				}
				if math.Float64bits(got) != math.Float64bits(want.l(i, j)) {
					t.Fatalf("%s: L[%d][%d] = %x, oracle %x", name, i, j, math.Float64bits(got), math.Float64bits(want.l(i, j)))
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(n)))
		rc, got, ref, y := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for trial := 0; trial < 3; trial++ {
			norm := 0.0
			for i := range rc {
				rc[i] = rng.NormFloat64() * math.Pow(10, 6*rng.Float64()-3)
				norm = math.Max(norm, math.Abs(rc[i]))
			}
			lvl.solveCoarse(rc, got)
			want.solve(rc, ref)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%s trial %d: ec[%d] = %x, oracle %x", name, trial, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
				}
			}
			// ‖L·(Lᵀ·x) − rc‖∞ through the oracle's factor.
			for i := range y {
				y[i] = 0
				for j := i; j <= min(i+want.bw, n-1); j++ {
					y[i] += want.l(j, i) * got[j]
				}
			}
			for i := range rc {
				lx := 0.0
				for j := max(i-want.bw, 0); j <= i; j++ {
					lx += want.l(i, j) * y[j]
				}
				if d := math.Abs(lx - rc[i]); d > 1e-10*norm {
					t.Errorf("%s trial %d: |L·Lᵀ·x − rc| = %g at %d, ‖rc‖∞ = %g", name, trial, d, i, norm)
					break
				}
			}
		}
	}
}

func TestAMGFactorisationRejectsBadPivot(t *testing.T) {
	// A failed factorisation names the aggregate and its pivot. +Inf is the
	// case that used to slip through: it is neither ≤ 0 nor NaN, and its
	// square root would zero every entry below it without a word.
	u := ladderMesh(t)
	clean, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := clean.amg()
	if err != nil {
		t.Fatal(err)
	}
	cell := u.NumCells / 2
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e300} {
		sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
		if err != nil {
			t.Fatal(err)
		}
		sys.Accum[cell] = bad
		want := fmt.Sprintf("lost positive definiteness at aggregate %d (pivot ", lvl.aggOf[cell])
		if _, err := sys.amg(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Accum[%d] = %v: err = %v, want one containing %q", cell, bad, err, want)
		}
		if _, err := newSerialReference(sys).Rung(solver.PrecondAMG, clean.Diagonal()); err == nil {
			t.Errorf("Accum[%d] = %v: the AMG rung was built over a failed factorisation", cell, bad)
		}
	}
}

func TestAMGNonFiniteCoarseResidualIsBreakdown(t *testing.T) {
	// A non-finite coarse residual (here from a poisoned initial guess: b is
	// finite, so the set-up program's right-hand-side check passes and
	// r = b − A·x carries the poison into the V-cycle) comes out of both
	// substitution sweeps non-finite and ends the solve in ErrBreakdown, on
	// the serial reference and on the partitioned operator alike.
	po, closeOp := residentFixtureOn(t, ladderMesh(t), 1, 2)
	defer closeOp()
	n := po.Size()
	spaces := map[string]solver.Operator{"serial": newSerialReference(po.Sys), "parts": po}
	for name, a := range spaces {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			b, x := probeVector(n, 1), probeVector(n, 2)
			x[n/2] = bad
			_, err := solver.CG(a, x, b, solver.Options{MaxIter: 5, PrecondKind: solver.PrecondAMG, PrecondDiag: po.Sys.Diagonal()})
			if !errors.Is(err, solver.ErrBreakdown) {
				t.Errorf("%s with x0[%d] = %v: err = %v, want ErrBreakdown", name, n/2, bad, err)
			}
		}
	}
	lvl, err := po.Sys.amg()
	if err != nil {
		t.Fatal(err)
	}
	rc, ec := make([]float64, lvl.nAgg), make([]float64, lvl.nAgg)
	rc[lvl.nAgg/2] = math.Inf(1)
	lvl.solveCoarse(rc, ec)
	if v := ec[lvl.nAgg/2]; !math.IsNaN(v) && !math.IsInf(v, 0) {
		t.Errorf("solveCoarse turned rc[%d] = +Inf into the finite %g", lvl.nAgg/2, v)
	}
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
	op, closeOp, err := NewSystemSpace(part, sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOp()
	diag := sys.Diagonal()
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
	opRR, closeRR, err := NewSystemSpace(rr, sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeRR()
	poRR := opRR.(*PartOperator)
	for _, kind := range ladderKinds() {
		if err := poRR.SetPrecond(kind, diag); err == nil {
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
// rung on the 15360-cell benchmark mesh, compile included — the wall-clock
// column of docs/benchmarks.md's ladder table.
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

// BenchmarkUsolveAMGStage times the one-off level build and each stage of one
// AMG V-cycle on the 15360-cell benchmark mesh, through the reference
// realization's kernels — the per-stage sizing of an AMG iteration
// (docs/benchmarks.md) without a scratch harness.
func BenchmarkUsolveAMGStage(b *testing.B) {
	u := benchRadial(b)
	sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
	if err != nil {
		b.Fatal(err)
	}
	lvl, err := sys.amg()
	if err != nil {
		b.Fatal(err)
	}
	h := &UHostOperator{Sys: sys}
	n := u.NumCells
	inv := sys.Diagonal()
	for i, d := range inv {
		inv[i] = 1 / d
	}
	r, z, w := probeVector(n, 1), make([]float64, n), make([]float64, n)
	rc, ec := make([]float64, lvl.nAgg), make([]float64, lvl.nAgg)
	stages := []struct {
		name string
		run  func()
	}{
		{"build", func() {
			if _, err := buildAMGLevel(sys); err != nil {
				b.Fatal(err)
			}
		}},
		{"pre", func() { amgPre(z, inv, r) }},
		{"apply", func() { _ = h.Apply(w, z) }},
		{"restrict", func() {
			for a := range rc {
				rc[a] = amgResidualSum(lvl.aggCells[lvl.aggStart[a]:lvl.aggStart[a+1]], r, w)
			}
		}},
		{"coarse", func() { lvl.solveCoarse(rc, ec) }},
		{"prolong", func() { amgProlong(z, ec, lvl.aggOf) }},
		{"post", func() { amgPost(z, inv, r, w) }},
	}
	// One V-cycle first, so every stage is timed on the data it sees in a solve.
	for _, st := range stages[1:] {
		st.run()
	}
	for _, st := range stages {
		b.Run(st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st.run()
			}
		})
	}
}
