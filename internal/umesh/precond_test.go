package umesh

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/physics"
	"repro/internal/solver"
)

// ladderMesh builds a mesh large enough that the depth-8 canonical blocks
// hold several cells each — the regime where the block-structured rungs
// (AMG aggregates) actually have in-block couplings to work
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

// ladderKinds are the operator-built rungs, the ones above Jacobi.
func ladderKinds() []solver.PrecondKind {
	return []solver.PrecondKind{solver.PrecondChebyshev, solver.PrecondAMG}
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
	// canonical blocks — Jacobi > Chebyshev > AMG, strictly — and AMG clears
	// the headline ≥5× bar over Jacobi.
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
	t.Logf("iterations: jacobi=%d chebyshev=%d amg=%d",
		iters[solver.PrecondJacobi], iters[solver.PrecondChebyshev], iters[solver.PrecondAMG])
	if iters[solver.PrecondChebyshev] >= iters[solver.PrecondJacobi] {
		t.Errorf("Chebyshev (%d iterations) did not beat Jacobi (%d)", iters[solver.PrecondChebyshev], iters[solver.PrecondJacobi])
	}
	if iters[solver.PrecondAMG] >= iters[solver.PrecondChebyshev] {
		t.Errorf("AMG (%d iterations) did not beat Chebyshev (%d)", iters[solver.PrecondAMG], iters[solver.PrecondChebyshev])
	}
	if 5*iters[solver.PrecondAMG] > iters[solver.PrecondJacobi] {
		t.Errorf("AMG (%d iterations) is not ≥5× below Jacobi (%d)", iters[solver.PrecondAMG], iters[solver.PrecondJacobi])
	}
}

func TestPrecondLadderRecordedIterationCounts(t *testing.T) {
	// The pinned ladder: the benchmark radial mesh, three backward-Euler steps
	// of 3600 s to 1e-8 between a ±2 kg/s well pair, takes exactly these
	// serial iteration counts per rung — a fixed point no layout or fusion
	// change may move.
	// The counts are amd64 values: the umesh float64 kernels carry no explicit
	// anti-FMA roundings, so an architecture that contracts a·b + c may
	// converge an iteration earlier or later.
	ladder := []struct {
		kind       solver.PrecondKind
		iterations int
	}{
		{solver.PrecondJacobi, 1365},
		{solver.PrecondChebyshev, 369},
		{solver.PrecondAMG, 159},
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("the ladder was recorded on amd64, this is %s", runtime.GOARCH)
	}
	if raceEnabled {
		t.Skip("three serial single-goroutine solves: nothing for the race detector to watch, and ~20 s instrumented")
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
	blocks := canonicalBlocks(u.NumCells, reductionDepth)
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
	n2 := lvl.coarse.nAgg
	if n2 <= 0 || n2 >= lvl.nAgg {
		t.Fatalf("level-2 size %d is not a coarsening of %d aggregates", n2, lvl.nAgg)
	}
	bw := 0
	for i := 0; i < n2; i++ {
		if w := lvl.rowStart[i+1] - lvl.rowStart[i] - 1; w > bw {
			bw = w
		}
	}
	t.Logf("cells=%d aggregates=%d A_c off-diagonals=%d level-2 aggregates=%d max band=%d envelope entries=%d (dense band %d) factor bytes=%d",
		u.NumCells, lvl.nAgg, len(lvl.cVal), n2, bw, len(lvl.fac), n2*(bw+1), 8*len(lvl.fac))
}

// bandOracle is the textbook level-2 factor the skyline must reproduce bit
// for bit: a dense symmetric matrix copied into banded lower storage
// (row-major n×(bw+1), fac[i*(bw+1) + j−i+bw] = L[i][j]), the row-oriented
// inner-product Cholesky over the whole band, and forward/backward
// substitution as running differences in ascending column order.
type bandOracle struct {
	n, bw int
	fac   []float64
}

func newBandOracle(a [][]float64) (*bandOracle, error) {
	n := len(a)
	o := &bandOracle{n: n}
	for i := range a {
		for j := 0; j < i; j++ {
			if a[i][j] != 0 {
				o.bw = max(o.bw, i-j)
			}
		}
	}
	w := o.bw + 1
	o.fac = make([]float64, n*w)
	for i := range a {
		for j := max(i-o.bw, 0); j <= i; j++ {
			o.fac[i*w+j-i+o.bw] = a[i][j]
		}
	}
	for i := 0; i < n; i++ {
		jmin := max(i-o.bw, 0)
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

// coarseOracle is the textbook two-grid coarse cycle solveCoarse must
// reproduce bit for bit. It shares only the two aggregation maps with the code
// under test: A_c is assembled independently from the mesh faces into a dense
// band of couplings, the level-2 Galerkin matrix densely from A_c, both in the
// documented summation orders —
//
//   - an accumulation: the members' in canonical order (level 1), in
//     ascending order (level 2);
//   - a coupling: its face conductances in face order (level 1), its level-1
//     couplings in (row, column) order (level 2);
//   - a diagonal: the accumulation, then the incident couplings in ascending
//     neighbor order;
//   - A_c·z: the diagonal term, then the off-diagonals in ascending column
//     order.
type coarseOracle struct {
	n, bw int
	agg2  []int32
	d     []float64   // A_c's diagonal
	up    []float64   // A_c's couplings: up[i*(bw+1)+j−i] = t_ij for i < j ≤ i+bw
	a2    [][]float64 // the dense level-2 Galerkin matrix
	fac2  *bandOracle
}

func newCoarseOracle(sys *USystem, lvl *amgLevel) (*coarseOracle, error) {
	u, aggOf, n := sys.U, lvl.aggOf, lvl.nAgg
	o := &coarseOracle{n: n, agg2: lvl.coarse.aggOf}
	for _, f := range u.Faces {
		o.bw = max(o.bw, int(aggOf[f.A]-aggOf[f.B]), int(aggOf[f.B]-aggOf[f.A]))
	}
	o.up = make([]float64, n*(o.bw+1))
	for _, f := range u.Faces {
		a, b := aggOf[f.A], aggOf[f.B]
		if a != b {
			*o.at(int(min(a, b)), int(max(a, b))) += f.Trans * sys.Mobility
		}
	}
	acc := make([]float64, n)
	for _, c := range CanonicalOrder(u) {
		acc[aggOf[c]] += sys.Accum[c]
	}
	o.d = make([]float64, n)
	for i := range o.d {
		o.d[i] = acc[i]
		for j := max(i-o.bw, 0); j <= min(i+o.bw, n-1); j++ {
			if j != i {
				o.d[i] += o.t(i, j)
			}
		}
	}

	n2 := lvl.coarse.nAgg
	acc2, t2 := make([]float64, n2), make([][]float64, n2)
	for p := range t2 {
		t2[p] = make([]float64, n2)
	}
	for i := 0; i < n; i++ {
		acc2[o.agg2[i]] += acc[i]
		for j := i + 1; j <= min(i+o.bw, n-1); j++ {
			p, q := o.agg2[i], o.agg2[j]
			if t := o.t(i, j); t != 0 && p != q {
				t2[min(p, q)][max(p, q)] += t
			}
		}
	}
	o.a2 = make([][]float64, n2)
	for p := range o.a2 {
		o.a2[p] = make([]float64, n2)
		o.a2[p][p] = acc2[p]
		for q := 0; q < n2; q++ {
			if t := t2[min(p, q)][max(p, q)]; q != p && t != 0 {
				o.a2[p][p] += t
				o.a2[p][q] = -t
			}
		}
	}
	var err error
	o.fac2, err = newBandOracle(o.a2)
	return o, err
}

func (o *coarseOracle) at(i, j int) *float64 { return &o.up[i*(o.bw+1)+j-i] }

// t is the coupling between level-1 aggregates i ≠ j, zero outside the band.
func (o *coarseOracle) t(i, j int) float64 {
	i, j = min(i, j), max(i, j)
	if j-i > o.bw {
		return 0
	}
	return *o.at(i, j)
}

// apply is w = A_c·z over the band, skipping structural zeros.
func (o *coarseOracle) apply(w, z []float64) {
	for i := range w {
		acc := o.d[i] * z[i]
		for j := max(i-o.bw, 0); j <= min(i+o.bw, o.n-1); j++ {
			if t := o.t(i, j); j != i && t != 0 {
				acc += -t * z[j]
			}
		}
		w[i] = acc
	}
}

// cycle is the two-grid cycle, spelled step by step.
func (o *coarseOracle) cycle(rc, ec []float64) {
	n, n2 := o.n, o.fac2.n
	z, w := make([]float64, n), make([]float64, n)
	for i := range z {
		z[i] = amgOmega * ((1 / o.d[i]) * rc[i])
	}
	o.apply(w, z)
	r2, e2 := make([]float64, n2), make([]float64, n2)
	for i := 0; i < n; i++ {
		r2[o.agg2[i]] += rc[i] - w[i]
	}
	o.fac2.solve(r2, e2)
	for i := range z {
		z[i] += e2[o.agg2[i]]
	}
	o.apply(w, z)
	for i := range ec {
		ec[i] = z[i] + amgOmega*((1/o.d[i])*(rc[i]-w[i]))
	}
}

// aNorm is ‖e‖ in the A_c norm.
func (o *coarseOracle) aNorm(e []float64) float64 {
	w := make([]float64, len(e))
	o.apply(w, e)
	s := 0.0
	for i := range e {
		s += e[i] * w[i]
	}
	return math.Sqrt(s)
}

func TestAMGSkylineMatchesDenseBandOracle(t *testing.T) {
	// The serial and partitioned paths share solveCoarse, so no serial↔parts
	// comparison can see its arithmetic drift; this is the independent check.
	// On the benchmark mesh, the ladder mesh and three badly-scaled seeded
	// systems: A_c equals the oracle's entry for entry, every entry of the
	// level-2 skyline factor equals the dense-band oracle's and nothing inside
	// the band but outside the skyline is non-zero, the level-2 solve really
	// solves, every word of a coarse cycle equals the textbook cycle's, and
	// one cycle contracts a random error in the A_c norm.
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
		o, err := newCoarseOracle(sys, lvl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, want := lvl.nAgg, o.fac2
		n2 := want.n
		t.Logf("%s: aggregates=%d A_c band=%d off-diagonals=%d level-2 aggregates=%d band=%d envelope entries=%d (dense band %d)",
			name, n, o.bw, len(lvl.cVal), n2, want.bw, len(lvl.fac), n2*(want.bw+1))

		// A_c, entry for entry.
		for i := 0; i < n; i++ {
			if math.Float64bits(lvl.cDiag[i]) != math.Float64bits(o.d[i]) {
				t.Fatalf("%s: A_c[%d][%d] = %x, oracle %x", name, i, i, math.Float64bits(lvl.cDiag[i]), math.Float64bits(o.d[i]))
			}
			nnz := 0
			for j := max(i-o.bw, 0); j <= min(i+o.bw, n-1); j++ {
				if j != i && o.t(i, j) != 0 {
					nnz++
				}
			}
			if got := int(lvl.cPtr[i+1] - lvl.cPtr[i]); got != nnz {
				t.Fatalf("%s: A_c row %d holds %d off-diagonals, oracle %d", name, i, got, nnz)
			}
			for k := lvl.cPtr[i]; k < lvl.cPtr[i+1]; k++ {
				j := int(lvl.cCol[k])
				if k > lvl.cPtr[i] && lvl.cCol[k-1] >= lvl.cCol[k] {
					t.Fatalf("%s: A_c row %d columns out of order at %d", name, i, j)
				}
				if math.Float64bits(lvl.cVal[k]) != math.Float64bits(-o.t(i, j)) {
					t.Fatalf("%s: A_c[%d][%d] = %x, oracle %x", name, i, j, math.Float64bits(lvl.cVal[k]), math.Float64bits(-o.t(i, j)))
				}
			}
		}

		// The level-2 factor, entry for entry.
		if len(lvl.fac) > n2*(want.bw+1) {
			t.Errorf("%s: skyline holds %d entries, more than the %d of the dense band", name, len(lvl.fac), n2*(want.bw+1))
		}
		for i := 0; i < n2; i++ {
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
		rc, got, ref := make([]float64, n), make([]float64, n), make([]float64, n)
		r2, e2 := make([]float64, n2), make([]float64, n2)
		for trial := 0; trial < 3; trial++ {
			// The level-2 solve solves: ‖A2·e − r‖∞ within rounding of
			// max_p Σ_q |A2[p][q]·e_q|.
			for p := range r2 {
				r2[p] = rng.NormFloat64() * math.Pow(10, 6*rng.Float64()-3)
			}
			lvl.solveSkyline(r2, e2)
			scale, worst := 0.0, 0.0
			for p, row := range o.a2 {
				ax, mag := 0.0, 0.0
				for q, a := range row {
					ax += a * e2[q]
					mag += math.Abs(a * e2[q])
				}
				scale, worst = math.Max(scale, mag), math.Max(worst, math.Abs(ax-r2[p]))
			}
			if worst > 1e-10*scale {
				t.Errorf("%s trial %d: ‖A2·e − r‖∞ = %g, against Σ|A2·e| up to %g", name, trial, worst, scale)
			}

			// The cycle, word for word.
			for i := range rc {
				rc[i] = rng.NormFloat64() * math.Pow(10, 6*rng.Float64()-3)
			}
			lvl.solveCoarse(rc, got)
			o.cycle(rc, ref)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%s trial %d: ec[%d] = %x, oracle %x", name, trial, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
				}
			}

			// One cycle contracts a random error e: the error left after
			// correcting from r = A_c·e is e − M⁻¹·r.
			e := make([]float64, n)
			for i := range e {
				e[i] = rng.NormFloat64()
			}
			o.apply(rc, e)
			lvl.solveCoarse(rc, got)
			before := o.aNorm(e)
			for i := range e {
				e[i] -= got[i]
			}
			if after := o.aNorm(e); !(after < before) {
				t.Errorf("%s trial %d: one cycle took ‖e‖_A from %g to %g", name, trial, before, after)
			} else if trial == 0 {
				t.Logf("%s: one cycle contracts ‖e‖_A by %.3f", name, after/before)
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
		if _, err := ReferenceSpace(sys, nil).Rung(solver.PrecondAMG, clean.Diagonal()); err == nil {
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
	spaces := map[string]solver.Operator{"serial": ReferenceSpace(po.Sys, nil), "parts": po}
	for name, a := range spaces {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			b, x := probeVector(n, 1), probeVector(n, 2)
			x[n/2] = bad
			_, err := solver.CG(a, x, b, solver.Options{MaxIter: 5, PrecondKind: solver.PrecondAMG})
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

func TestAMGLevel2RejectsIndefinite(t *testing.T) {
	// Every A_c diagonal can be positive while the hierarchy is not SPD: a
	// small negative accumulation in every cell leaves each diagonal
	// dominated by its conductances but makes 1ᵀA·1 < 0, so the level-2
	// factorisation must meet a non-positive pivot and name it.
	sys, err := NewUSystem(ladderMesh(t), physics.DefaultFluid(), 3600, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := range sys.Accum {
		_, trans := sys.U.halfFaces(c)
		off := 0.0
		for _, tr := range trans {
			off += tr * sys.Mobility
		}
		sys.Accum[c] = -1e-3 * off
	}
	want := "AMG level-2 matrix lost positive definiteness at aggregate "
	if _, err := sys.amg(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want one containing %q", err, want)
	}
}

func TestAMGCoarseCycleConcurrent(t *testing.T) {
	// One level serves every solve on its system, and solveCoarse's scratch
	// lives on the level: concurrent cycles must each return the sequential
	// answer.
	sys, err := NewUSystem(ladderMesh(t), physics.DefaultFluid(), 3600, 0)
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := sys.amg()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	rcs, want := make([][]float64, goroutines), make([][]float64, goroutines)
	for g := range rcs {
		rcs[g], want[g] = probeVector(lvl.nAgg, g+1), make([]float64, lvl.nAgg)
		lvl.solveCoarse(rcs[g], want[g])
	}
	var wg sync.WaitGroup
	for g := range rcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, lvl.nAgg)
			for range 50 {
				lvl.solveCoarse(rcs[g], got)
				if !slices.Equal(got, want[g]) {
					t.Errorf("goroutine %d: a concurrent cycle differs from the sequential one", g)
					return
				}
			}
		}()
	}
	wg.Wait()
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
	return ReferenceSpace(sys, nil), sys.Diagonal()
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
			if st, err := solver.CG(fixed, xstar, b, solver.Options{Tol: 1e-12, MaxIter: 4000, PrecondKind: kind}); err != nil || !st.Converged {
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
				_, _ = solver.CG(fixed, x, b, solver.Options{Tol: 1e-300, MaxIter: k, PrecondKind: kind})
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

// corruptSystem is a fresh system on u whose diagonal — the memoized one every
// space preconditions from — holds v at cell 5.
func corruptSystem(t *testing.T, u *Mesh, v float64) *USystem {
	t.Helper()
	sys := newUSystemFixture(t, u)
	sys.Diagonal()[5] = v
	return sys
}

func TestSetPrecondRejectsMisuse(t *testing.T) {
	// The resident install path's guard rails: a known kind, and a system
	// whose diagonal every rung can invert.
	u := ladderMesh(t)
	part, err := RCB(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	op, closeOp, err := NewSystemSpace(part, newUSystemFixture(t, u), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOp()
	if err := op.SetPrecond("nonsense"); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, kind := range solver.PrecondKinds() {
		if err := op.SetPrecond(kind); err != nil {
			t.Errorf("%s rejected on a canonical partition: %v", kind, err)
		}
	}
	for _, v := range badDiagonalEntries {
		bad, closeBad, err := NewSystemSpace(part, corruptSystem(t, u, v), 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range solver.PrecondKinds() {
			if err := bad.SetPrecond(kind); err == nil || !strings.Contains(err.Error(), "at 5") {
				t.Errorf("%s, diagonal entry %v: err = %v, want a rejection naming index 5", kind, v, err)
			}
		}
		closeBad()
	}
}

func TestNewPartOperatorRefusesNonCanonicalPartitions(t *testing.T) {
	// The part-resident space runs on RCB partitions only: a part that does
	// not own a run of the canonical order, or that starts inside a canonical
	// reduction block, is an error — there is no second way to fold.
	u := ladderMesh(t)
	sys := newUSystemFixture(t, u)
	order := CanonicalOrder(u)
	roundRobin, oneCellFirst := make([]int, u.NumCells), make([]int, u.NumCells)
	for k, c := range order {
		roundRobin[c] = int(c) % 2
		oneCellFirst[c] = min(k, 1)
	}
	for name, tc := range map[string]struct {
		part []int
		want string
	}{
		"round-robin":         {roundRobin, "does not own a run of the canonical order"},
		"one-cell first part": {oneCellFirst, "part 1 starts inside canonical block 0"},
	} {
		p, err := buildPartition(u, tc.part, 2) // Owned in canonical order, as RCB lists them
		if err != nil {
			t.Fatal(err)
		}
		l, err := CompileLayout(u, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewPartOperator(l, sys); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
		l.Close()
	}
}

func TestSerialMakePrecondValidation(t *testing.T) {
	// The serial reference space's install path has the resident path's guard
	// rails (solver.CheckPrecond on the system's diagonal, in front of the
	// rung builder).
	u := ladderMesh(t)
	sys := newUSystemFixture(t, u)
	ref := ReferenceSpace(sys, nil)
	if err := ref.SetPrecond("nonsense"); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ref.Rung(solver.PrecondJacobi, sys.Diagonal()); err == nil {
		t.Error("the rung builder built a kind that is not operator-built")
	}
	for _, v := range badDiagonalEntries {
		bad := ReferenceSpace(corruptSystem(t, u, v), nil)
		for _, kind := range solver.PrecondKinds() {
			if err := bad.SetPrecond(kind); err == nil || !strings.Contains(err.Error(), "at 5") {
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
	inv := slices.Clone(sys.Diagonal())
	for i, d := range inv {
		inv[i] = 1 / d
	}
	r, z, w := probeVector(n, 1), make([]float64, n), make([]float64, n)
	rc, ec := make([]float64, lvl.nAgg), make([]float64, lvl.nAgg)
	wc, r2, e2 := make([]float64, lvl.nAgg), make([]float64, lvl.coarse.nAgg), make([]float64, lvl.coarse.nAgg)
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
		// solveCoarse split in two: everything on level 1 — the two A_c
		// residuals, the Jacobi steps, the level-2 restriction and
		// prolongation — and the level-2 skyline sweeps.
		{"coarse-smooth", func() {
			amgPre(ec, lvl.cInv, rc)
			lvl.applyCoarse(wc, ec)
			for p := range r2 {
				r2[p] = amgResidualSum(lvl.coarse.members(p), rc, wc)
			}
			amgProlong(ec, e2, lvl.coarse.aggOf)
			lvl.applyCoarse(wc, ec)
			amgPost(ec, lvl.cInv, rc, wc)
		}},
		{"coarse-solve", func() { lvl.solveSkyline(r2, e2) }},
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
