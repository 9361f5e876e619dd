package umesh

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/solver"
)

// This file is the preconditioner ladder on the unstructured implicit-solve
// path: two rungs above Jacobi, each realized in both spaces a solve can run
// in — as a reference rung over global-order slices (referenceRung, what the
// serial reference space's Rung field builds: the serial oracle) and as plan
// steps on PartOperator, whose sequence emitPrecond (program.go) compiles into
// the phase programs — so golden transient trajectories stay bit-identical
// between the serial solve and every partitioned configuration.
//
// Every rung's arithmetic is written once. Both rungs are elementwise
// updates, operator applications and per-aggregate sums, none of which cares
// how a vector is laid out, so their float expressions live in the
// layout-free kernels below (chebInit, chebStep, amgPre, amgResidualSum,
// amgProlong, amgPost, and the Chebyshev scalar recurrence chebCoeffs.rounds)
// and both realizations are compositions of the same calls.
//
//   - Chebyshev: a fixed-degree polynomial of the Jacobi-scaled operator
//     D⁻¹A on the interval [b/30, b], where b ≥ λmax(D⁻¹A) is the Gershgorin
//     row-sum bound. The application is chebDegree−1 operator applications
//     plus elementwise updates — no triangular solves, so the resident form
//     reuses the operator's application (halo push, row sweep) on a scratch
//     destination.
//
//   - Aggregation AMG: greedy distance-2 face-adjacency aggregation walked
//     in canonical order and bounded by the canonical blocks (an aggregate
//     never crosses a block, hence never a part), renumbered by reverse
//     Cuthill–McKee, and a V-cycle of weighted-Jacobi smoothing around a
//     coarse correction. The coarse correction is itself a two-grid cycle,
//     built once per USystem: the same aggregation rule on the Galerkin
//     matrix A_c's graph gives level 2, whose Galerkin matrix is assembled
//     into a skyline of Lᵀ and Cholesky-factored in place (only the envelope
//     is stored, factored and multiplied). The coarse residual restriction
//     is a per-part disjoint write into one shared coarse vector (the
//     "coarse-level halo plan" degenerates to nothing precisely because
//     aggregates are block-bounded), and the coarse cycle runs host-serial —
//     the identical code and data on the serial and partitioned paths.
//
// Bit-identity discipline, as everywhere on this path: both realizations of
// a rung evaluate the same floating-point expressions in the same order, and
// every reduction (including the ladder's ⟨r, z⟩) uses the canonical blocked
// summation tree.

const (
	// chebDegree is the Chebyshev iteration count per application: the rung
	// applies a degree-chebDegree polynomial costing chebDegree−1 operator
	// applications.
	chebDegree = 4
	// chebLoFraction sets the lower end of the Chebyshev interval, b/chebLoFraction
	// — the standard smoothing choice that targets the upper part of the
	// spectrum while staying positive on all of it.
	chebLoFraction = 30.0
	// amgOmega is the weighted-Jacobi smoothing factor of the AMG V-cycle.
	amgOmega = 2.0 / 3.0
)

// chebCoeffs holds the Chebyshev interval coefficients for [b/chebLoFraction, b]:
// center θ, half-width δ, σ = θ/δ, and the derived starting values.
type chebCoeffs struct {
	theta, delta, sigma float64
	invTheta, rho0      float64
}

func newChebCoeffs(b float64) chebCoeffs {
	a := b / chebLoFraction
	theta := (b + a) / 2
	delta := (b - a) / 2
	sigma := theta / delta
	return chebCoeffs{theta: theta, delta: delta, sigma: sigma, invTheta: 1 / theta, rho0: 1 / sigma}
}

// rounds returns the scalars (c1, c2) of the chebDegree−1 Chebyshev rounds
// d = c1·d + c2·D⁻¹(r − A·z) — the three-term recurrence in ρ, stated once
// for both realizations.
func (cf chebCoeffs) rounds() (c [chebDegree - 1][2]float64) {
	rhoPrev := cf.rho0
	for k := range c {
		rho := 1 / (2*cf.sigma - rhoPrev)
		c[k] = [2]float64{rho * rhoPrev, 2 * rho / cf.delta}
		rhoPrev = rho
	}
	return c
}

// chebUpper returns the memoized Gershgorin upper bound of the Jacobi-scaled
// operator D⁻¹A: max over rows of 1 + (Σ Υλ)/d. It is computed host-serially
// from the system once, so serial and partitioned solves share the exact
// scalar.
func (s *USystem) chebUpper() float64 {
	s.preMu.Lock()
	defer s.preMu.Unlock()
	if s.chebTop == 0 {
		lam := s.Mobility
		top := 1.0
		for c := 0; c < s.U.NumCells; c++ {
			_, trans := s.U.halfFaces(c)
			off := 0.0
			for _, t := range trans {
				off += t * lam
			}
			if v := 1 + off/(s.Accum[c]+off); v > top {
				top = v
			}
		}
		s.chebTop = top
	}
	return s.chebTop
}

// ---------------------------------------------------------------------------
// Aggregation AMG: hierarchy construction (once per USystem)
// ---------------------------------------------------------------------------

// aggregates is one piecewise-constant prolongation: the fine index →
// aggregate map and each aggregate's members in the level's walk order
// (canonical for cells, ascending for level-1 aggregates) — the shared
// restriction summation order.
type aggregates struct {
	nAgg               int
	aggOf              []int32
	aggStart, aggCells []int32
}

func (g *aggregates) members(a int) []int32 { return g.aggCells[g.aggStart[a]:g.aggStart[a+1]] }

// amgLevel is the AMG hierarchy of one USystem, assembled once per system
// (USystem.amg) and shared, read-only, by the reference rung and every
// PartOperator, so all paths correct through literally the same coarse cycle.
type amgLevel struct {
	aggregates // level 1: cells → aggregates
	// pos is the canonical position of each cell (the inverse of
	// CanonicalOrder) — kept for the part-local aggregate compilation.
	pos []int32
	// A_c as CSR: the diagonal and its inverse, and per row the off-diagonal
	// entries (−conductance) sorted by column.
	cDiag, cInv []float64
	cPtr, cCol  []int32
	cVal        []float64
	// coarse aggregates the level-1 aggregates into level 2.
	coarse aggregates
	// fac is the level-2 Cholesky factor as a skyline of Lᵀ, the one layout
	// both substitution sweeps walk at unit stride: row i is
	// fac[rowStart[i]:rowStart[i+1]] = L[i][i], L[i+1][i], …, L[last][i] —
	// the diagonal, then column i of L down to the last row whose envelope
	// reaches it. The structural zeros outside are neither stored nor multiplied.
	rowStart []int
	fac      []float64
	// mu guards solveCoarse's scratch — A_c·z, the level-2 residual and
	// correction — so concurrent solves on one system take turns through
	// the host-serial cycle rather than share its vectors.
	mu        sync.Mutex
	w, r2, e2 []float64
}

// edge is one coupling of a matrix in Laplacian form, diag(acc) + Σ
// t·(e_lo − e_hi)(e_lo − e_hi)ᵀ with lo < hi — the form of the fine system
// (acc = Accum, t = Υ·λ per face), which a Galerkin product keeps.
type edge struct {
	lo, hi int32
	t      float64
}

// amg returns the system's memoized AMG hierarchy, building and factoring it
// on first use.
func (s *USystem) amg() (*amgLevel, error) {
	s.preMu.Lock()
	defer s.preMu.Unlock()
	if s.amgLvl == nil && s.amgErr == nil {
		s.amgLvl, s.amgErr = buildAMGLevel(s)
	}
	return s.amgLvl, s.amgErr
}

// buildAMGLevel builds the hierarchy: the level-1 aggregation of the cells
// and A_c, the level-2 aggregation of A_c's graph, and the factored level-2
// Galerkin matrix.
func buildAMGLevel(s *USystem) (*amgLevel, error) {
	u := s.U
	order := CanonicalOrder(u)
	blocks := canonicalBlocks(u.NumCells, reductionDepth)
	lvl := &amgLevel{pos: make([]int32, u.NumCells)}
	blockOf := make([]int32, u.NumCells)
	for bi := range blocks {
		lo, hi := blockSpan(blocks, bi, len(order))
		for k := lo; k < hi; k++ {
			lvl.pos[order[k]], blockOf[order[k]] = k, int32(bi)
		}
	}

	// Level 1 seeds in canonical order and stays inside the canonical blocks,
	// so an aggregate never crosses a block, hence never a part.
	aggOf, nAgg := aggregate(order,
		func(c int32) []int32 { nbrs, _ := u.halfFaces(int(c)); return nbrs },
		func(seed, c int32) bool { return blockOf[c] == blockOf[seed] })
	faces := make([]edge, len(u.Faces))
	for i, f := range u.Faces {
		faces[i] = edge{int32(f.A), int32(f.B), f.Trans * s.Mobility}
	}
	edges := coarsen(aggOf, nAgg, faces)

	// Renumber aggregates by reverse Cuthill–McKee. Canonical numbering has
	// O(n) bandwidth — the first RCB plane separates neighbors by half the
	// numbering — and level 2 seeds in level 1's numbering, so its skyline
	// would inherit the width. The permutation is deterministic and invisible
	// to bit-identity: every path indexes through the same shared level.
	perm := coarseRCM(nAgg, edges)
	for c := range aggOf {
		aggOf[c] = perm[aggOf[c]]
	}
	edges = coarsen(perm, nAgg, edges)
	lvl.aggregates = newAggregates(aggOf, nAgg, order)

	// A_c = Pᵀ·A·P: accumulations summed over the members in canonical order,
	// couplings over their faces in face order. A bad diagonal is named by its
	// level-1 aggregate before anything is built on it.
	acc := lvl.sum(s.Accum)
	lvl.cDiag = laplacianDiag(acc, edges)
	lvl.cInv = make([]float64, nAgg)
	for a, d := range lvl.cDiag {
		if !(d > 0) || math.IsInf(d, 1) {
			return nil, fmt.Errorf("umesh: AMG coarse matrix lost positive definiteness at aggregate %d (pivot %g)", a, d)
		}
		lvl.cInv[a] = 1 / d
	}
	lvl.cPtr, lvl.cCol, lvl.cVal = csr(nAgg, edges)

	// Level 2: the same rule on A_c's graph, seeded in level-1 order and not
	// block-bounded — level 2 lives only in the host-serial barrier action,
	// which no part owns.
	ids := make([]int32, nAgg)
	for a := range ids {
		ids[a] = int32(a)
	}
	agg2, n2 := aggregate(ids, func(a int32) []int32 { return lvl.cCol[lvl.cPtr[a]:lvl.cPtr[a+1]] }, nil)
	lvl.coarse = newAggregates(agg2, n2, ids)
	if err := lvl.factor(lvl.coarse.sum(acc), coarsen(agg2, n2, edges)); err != nil {
		return nil, err
	}
	lvl.w, lvl.r2, lvl.e2 = make([]float64, nAgg), make([]float64, n2), make([]float64, n2)
	return lvl, nil
}

// aggregate is the greedy distance-2 rule both levels share: walking the
// seeds in order, each unassigned seed opens an aggregate and absorbs its
// unassigned neighbors (ring 1) and their unassigned neighbors (ring 2) —
// those keep admits, or all of them when keep is nil. Determinism comes from
// the fixed seed order and the fixed adjacency order of each ring walk.
func aggregate(seeds []int32, nbrs func(int32) []int32, keep func(seed, i int32) bool) ([]int32, int) {
	aggOf := make([]int32, len(seeds))
	for i := range aggOf {
		aggOf[i] = -1
	}
	free := func(seed, i int32) bool { return aggOf[i] < 0 && (keep == nil || keep(seed, i)) }
	var ring []int32
	n := int32(0)
	for _, c := range seeds {
		if aggOf[c] >= 0 {
			continue
		}
		aggOf[c] = n
		ring = ring[:0]
		for _, nb := range nbrs(c) {
			if free(c, nb) {
				aggOf[nb] = n
				ring = append(ring, nb)
			}
		}
		for _, m := range ring {
			for _, nb := range nbrs(m) {
				if free(c, nb) {
					aggOf[nb] = n
				}
			}
		}
		n++
	}
	return aggOf, int(n)
}

// newAggregates lists each aggregate's members in walk order.
func newAggregates(aggOf []int32, n int, walk []int32) aggregates {
	cells, start := bucketed(walk, n, func(c int32) int32 { return aggOf[c] })
	return aggregates{nAgg: n, aggOf: aggOf, aggStart: start, aggCells: cells}
}

// bucketed is a stable counting sort of items by a key in [0, n); it also
// returns where each key's run starts (and, last, where the runs end).
func bucketed[T any](items []T, n int, key func(T) int32) ([]T, []int32) {
	start := make([]int32, n+1)
	for _, it := range items {
		start[key(it)+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	out, next := make([]T, len(items)), slices.Clone(start[:n])
	for _, it := range items {
		k := key(it)
		out[next[k]] = it
		next[k]++
	}
	return out, start
}

// sum restricts v: per aggregate, v summed over the members in member order.
func (g *aggregates) sum(v []float64) []float64 {
	out := make([]float64, g.nAgg)
	for a := range out {
		for _, i := range g.members(a) {
			out[a] += v[i]
		}
	}
	return out
}

// coarsen is the Galerkin product of a piecewise-constant prolongation onto n
// aggregates, on the couplings: each edge maps through aggOf, an edge inside
// one aggregate cancels exactly and is dropped, and the rest come out sorted
// by (lo, hi), the conductances of one pair summed in input order (the sorts
// are stable) — no map: the sort is the deduplication.
func coarsen(aggOf []int32, n int, in []edge) []edge {
	out := make([]edge, 0, len(in))
	for _, e := range in {
		if a, b := aggOf[e.lo], aggOf[e.hi]; a != b {
			out = append(out, edge{min(a, b), max(a, b), e.t})
		}
	}
	out, _ = bucketed(out, n, func(e edge) int32 { return e.hi })
	out, _ = bucketed(out, n, func(e edge) int32 { return e.lo })
	k := 0
	for _, e := range out {
		if k > 0 && out[k-1].lo == e.lo && out[k-1].hi == e.hi {
			out[k-1].t += e.t
			continue
		}
		out[k] = e
		k++
	}
	return out[:k]
}

// laplacianDiag is the diagonal of a matrix in Laplacian form: acc plus the
// conductances of the incident edges in edge order — for sorted edges, in
// ascending neighbor order.
func laplacianDiag(acc []float64, es []edge) []float64 {
	d := slices.Clone(acc)
	for _, e := range es {
		d[e.lo] += e.t
		d[e.hi] += e.t
	}
	return d
}

// csr lays sorted edges out as the off-diagonal rows of their matrix, −t at
// both (lo, hi) and (hi, lo); sorted edges place every (j, i) with j < i
// before any (i, k), so each row comes out in ascending column order.
func csr(n int, es []edge) (ptr, col []int32, val []float64) {
	ptr = make([]int32, n+1)
	for _, e := range es {
		ptr[e.lo+1]++
		ptr[e.hi+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	col, val = make([]int32, ptr[n]), make([]float64, ptr[n])
	next := slices.Clone(ptr[:n])
	for _, e := range es {
		col[next[e.lo]], val[next[e.lo]] = e.hi, -e.t
		col[next[e.hi]], val[next[e.hi]] = e.lo, -e.t
		next[e.lo]++
		next[e.hi]++
	}
	return ptr, col, val
}

// factor assembles the level-2 Galerkin matrix, given in Laplacian form, into
// the skyline of Lᵀ and Cholesky-factors it in place.
func (l *amgLevel) factor(acc []float64, es []edge) error {
	n := len(acc)
	// Cholesky fill stays inside the row envelope, so row i of Lᵀ runs to the
	// farthest aggregate coupled to any row ≤ i.
	reach := make([]int, n)
	for _, e := range es {
		reach[e.lo] = max(reach[e.lo], int(e.hi))
	}
	start := make([]int, n+1)
	for i, last := 0, 0; i < n; i++ {
		last = max(last, i, reach[i])
		start[i+1] = start[i] + last - i + 1
	}
	fac := make([]float64, start[n])
	for i, d := range laplacianDiag(acc, es) {
		fac[start[i]] = d
	}
	for _, e := range es {
		fac[start[e.lo]+int(e.hi-e.lo)] = -e.t
	}
	l.rowStart, l.fac = start, fac

	// In-place Cholesky (no pivoting — the Galerkin matrix of an SPD system
	// under a full-rank piecewise-constant prolongation is SPD), one row of
	// Lᵀ at a time: once row k is final, its outer product is subtracted from
	// the rows below it. Every entry (i, j) thus receives its L[i][k]·L[j][k]
	// terms in ascending k, the textbook inner product's order and bits, each
	// pass unit-stride and the exact zeros outside the skyline never formed.
	for k := 0; k < n; k++ {
		row := fac[start[k]:start[k+1]]
		piv := row[0]
		if !(piv > 0) || math.IsInf(piv, 1) {
			return fmt.Errorf("umesh: AMG level-2 matrix lost positive definiteness at aggregate %d (pivot %g)", k, piv)
		}
		d := math.Sqrt(piv)
		row[0] = d
		for t := 1; t < len(row); t++ {
			row[t] /= d
		}
		for t := 1; t < len(row); t++ {
			subScaled(fac[start[k+t]:], row[t:], row[t])
		}
	}
	return nil
}

// coarseRCM computes a reverse Cuthill–McKee permutation of a coarse graph
// given by its sorted edges: perm[old] = new. BFS from a minimum-degree seed,
// neighbors visited in (degree, id) order, final order reversed — the classic
// bandwidth reducer, deterministic by construction.
func coarseRCM(n int, es []edge) []int32 {
	ptr, adj, _ := csr(n, es)
	nbrs := func(a int32) []int32 { return adj[ptr[a]:ptr[a+1]] }
	deg := func(a int32) int32 { return ptr[a+1] - ptr[a] }
	for a := range int32(n) {
		slices.SortFunc(nbrs(a), func(x, y int32) int { return cmp.Or(cmp.Compare(deg(x), deg(y)), cmp.Compare(x, y)) })
	}
	visited := make([]bool, n)
	rcmOrder := make([]int32, 0, n)
	for len(rcmOrder) < n {
		// Seed each component at its minimum-degree (then minimum-id)
		// unvisited aggregate.
		seed := int32(-1)
		for a := range int32(n) {
			if !visited[a] && (seed < 0 || deg(a) < deg(seed)) {
				seed = a
			}
		}
		visited[seed] = true
		queue := []int32{seed}
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			rcmOrder = append(rcmOrder, a)
			for _, nb := range nbrs(a) {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	perm := make([]int32, n)
	for k, a := range rcmOrder {
		perm[a] = int32(n - 1 - k)
	}
	return perm
}

// subScaled is dst[i] -= src[i]·c over len(src) entries, the one update the
// factorisation and the forward sweep are made of. Each entry has the shape
// and term order of the textbook `acc -= a*b`, so on any one architecture it
// is bit-equal to the dense-band oracle; the 4× unroll buys 4.5 % of op_s_p50
// and 10 % of setup_s on usolve-amg-p1 over the plain range loop.
func subScaled(dst, src []float64, c float64) {
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0] -= s[0] * c
		d[1] -= s[1] * c
		d[2] -= s[2] * c
		d[3] -= s[3] * c
	}
	for ; i < len(src); i++ {
		dst[i] -= src[i] * c
	}
}

// solveCoarse is the coarse correction ec ≈ A_c⁻¹·rc of the V-cycle: a
// two-grid cycle on level 1, with the same kernels as the fine level's —
//
//	z = ω·D_c⁻¹·rc; restrict rc − A_c·z to level 2; solve there exactly;
//	prolong into z; ec = z + ω·D_c⁻¹·(rc − A_c·z)
//
// — whose equal Jacobi weights before and after the correction keep it
// symmetric positive definite, hence the whole rung. It is host-serial and
// the identical code and data on the serial and partitioned paths.
func (l *amgLevel) solveCoarse(rc, ec []float64) {
	l.mu.Lock()
	w, r2, e2 := l.w, l.r2, l.e2
	rc, ec = rc[:l.nAgg], ec[:l.nAgg]
	amgPre(ec, l.cInv, rc)
	l.applyCoarse(w, ec)
	for p := range r2 {
		r2[p] = amgResidualSum(l.coarse.members(p), rc, w)
	}
	l.solveSkyline(r2, e2)
	amgProlong(ec, e2, l.coarse.aggOf)
	l.applyCoarse(w, ec)
	amgPost(ec, l.cInv, rc, w)
	l.mu.Unlock()
}

// applyCoarse is w = A_c·z, each row's diagonal term first and then its
// off-diagonal terms in ascending column order.
func (l *amgLevel) applyCoarse(w, z []float64) {
	ptr, col, val := l.cPtr[:len(w)+1], l.cCol, l.cVal
	diag, z := l.cDiag[:len(w)], z[:len(w)]
	for i := range w {
		cols := col[ptr[i]:ptr[i+1]]
		vals := val[ptr[i]:ptr[i+1]]
		vals = vals[:len(cols)]
		acc := diag[i] * z[i]
		for k, j := range cols {
			acc += vals[k] * z[j]
		}
		w[i] = acc
	}
}

// solveSkyline solves the factored level-2 system L·Lᵀ·e = r, both sweeps
// unit-stride over the rows of Lᵀ. The forward sweep is column-oriented: once
// e_j is final it is subtracted from the rows below, so every row still
// receives its terms in ascending j (the row-oriented sweep's bits) as
// independent updates. The backward sweep's first term needs the row just
// finished, so it stays a row-oriented running difference in ascending j.
func (l *amgLevel) solveSkyline(rc, ec []float64) {
	start, fac := l.rowStart, l.fac
	copy(ec, rc)
	for j := range ec {
		row := fac[start[j]:start[j+1]]
		e := ec[j] / row[0]
		ec[j] = e
		subScaled(ec[j+1:], row[1:], e)
	}
	for i := len(ec) - 1; i >= 0; i-- {
		row := fac[start[i]:start[i+1]]
		acc := ec[i]
		rest := ec[i+1:][:len(row)-1]
		for x, v := range row[1:] {
			acc -= v * rest[x]
		}
		ec[i] = acc / row[0]
	}
}

// ---------------------------------------------------------------------------
// Layout-free rung kernels — shared by the reference rungs and the plan steps
// ---------------------------------------------------------------------------

// chebInit seeds the Chebyshev iterate and direction: z = d = (D⁻¹r)/θ.
func chebInit(z, d, inv, r []float64, invTheta float64) {
	d, inv, r = d[:len(z)], inv[:len(z)], r[:len(z)]
	for i := range z {
		zi := (inv[i] * r[i]) * invTheta
		z[i] = zi
		d[i] = zi
	}
}

// chebStep is one Chebyshev round after the scratch application w = A·z:
// d = c1·d + c2·D⁻¹(r − w); z += d.
func chebStep(z, d, inv, r, w []float64, c1, c2 float64) {
	d, inv, r, w = d[:len(z)], inv[:len(z)], r[:len(z)], w[:len(z)]
	for i := range z {
		di := c1*d[i] + c2*(inv[i]*(r[i]-w[i]))
		d[i] = di
		z[i] += di
	}
}

// amgPre is the weighted-Jacobi pre-smooth from zero: z = ω·D⁻¹r.
func amgPre(z, inv, r []float64) {
	inv, r = inv[:len(z)], r[:len(z)]
	for i := range z {
		z[i] = amgOmega * (inv[i] * r[i])
	}
}

// amgResidualSum restricts to one aggregate: the residual r − A·z (w = A·z)
// summed over the aggregate's member cells in the order given (canonical).
func amgResidualSum(cells []int32, r, w []float64) float64 {
	acc := 0.0
	for _, c := range cells {
		acc += r[c] - w[c]
	}
	return acc
}

// amgProlong adds the coarse correction: z_i += e[agg(i)].
func amgProlong(z, ec []float64, agg []int32) {
	agg = agg[:len(z)]
	for i := range z {
		z[i] += ec[agg[i]]
	}
}

// amgPost is the weighted-Jacobi post-smooth: z += ω·D⁻¹(r − A·z), w = A·z.
func amgPost(z, inv, r, w []float64) {
	inv, r, w = inv[:len(z)], r[:len(z)], w[:len(z)]
	for i := range z {
		z[i] += amgOmega * (inv[i] * (r[i] - w[i]))
	}
}

// ---------------------------------------------------------------------------
// Reference realizations: what the serial reference space's Rung field builds
// ---------------------------------------------------------------------------

// referenceRung builds an operator-built rung as z = M⁻¹·r over global-order
// slices (diag is the system's, validated by solver.CheckPrecond). Chebyshev
// and the AMG V-cycle are the step sequences of emitPrecond with h.Apply for the
// scratch applications and the shared kernels over whole vectors — what
// extends the serial↔partitioned bit-identity guarantee to every rung. It owns
// the inverse diagonal and one scratch vector per application in flight.
// (h.Apply fails only on a length mismatch, which SetPrecond's check of diag
// against Size has excluded — hence the dropped errors.)
func referenceRung(h *UHostOperator, kind solver.PrecondKind, diag []float64) (func(z, r []float64), error) {
	n := len(diag)
	inv := make([]float64, n)
	for i, d := range diag {
		inv[i] = 1 / d
	}
	switch kind {
	case solver.PrecondChebyshev:
		cf := newChebCoeffs(h.Sys.chebUpper())
		rounds := cf.rounds()
		w, d := make([]float64, n), make([]float64, n)
		return func(z, r []float64) {
			chebInit(z, d, inv, r, cf.invTheta)
			for _, c := range rounds {
				_ = h.Apply(w, z)
				chebStep(z, d, inv, r, w, c[0], c[1])
			}
		}, nil
	case solver.PrecondAMG:
		lvl, err := h.Sys.amg()
		if err != nil {
			return nil, err
		}
		w := make([]float64, n)
		rc, ec := make([]float64, lvl.nAgg), make([]float64, lvl.nAgg)
		return func(z, r []float64) {
			amgPre(z, inv, r)
			_ = h.Apply(w, z)
			for a := range rc {
				rc[a] = amgResidualSum(lvl.members(a), r, w)
			}
			lvl.solveCoarse(rc, ec)
			amgProlong(z, ec, lvl.aggOf)
			_ = h.Apply(w, z)
			amgPost(z, inv, r, w)
		}, nil
	}
	return nil, fmt.Errorf("umesh: %q is not an operator-built preconditioner", kind)
}

// ---------------------------------------------------------------------------
// Resident realizations: SetPrecond and the part-local rung state
// ---------------------------------------------------------------------------

// SetPrecond implements solver.ProgramSpace: it installs a ladder rung as the
// operator's resident preconditioner, replacing the previous one. Jacobi (the
// zero kind) is the resident inverse diagonal (z_i = (1/d_i)·r_i). The
// diagonal is the system's own (memoized) one, validated and loaded into the
// parts on every call — one O(owned) phase. Installation also sizes the
// per-part scratch (one buffer per owned row) and — for AMG — compiles the
// part-local aggregate views over the system's shared (memoized) level.
// Programs read the installed rung when they are compiled.
func (o *PartOperator) SetPrecond(kind solver.PrecondKind) error {
	diag := o.Sys.Diagonal()
	if err := solver.CheckPrecond(o.Size(), kind, diag); err != nil {
		return err
	}
	// The rung's own state first — a failure leaves the previous
	// preconditioner installed — then the diagonal load.
	switch kind {
	case solver.PrecondChebyshev:
		o.cheb = newChebCoeffs(o.Sys.chebUpper())
		for _, op := range o.parts {
			op.pd, op.pw = grown(op.pd, len(op.accum)), grown(op.pw, len(op.accum))
		}
	case solver.PrecondAMG:
		lvl, err := o.Sys.amg()
		if err != nil {
			return err
		}
		if o.amg != lvl {
			if err := o.compileAMG(lvl); err != nil {
				return err
			}
		}
		for _, op := range o.parts {
			op.pw = grown(op.pw, len(op.accum))
		}
	}
	o.ga = diag
	// phaseSetPre cannot fail; the pool propagates no error here.
	_, _ = o.setPrePlan.Execute()
	o.preKind = kind
	return nil
}

// grown returns buf when it already holds n entries, else a fresh n-entry
// buffer, so re-installing a rung allocates nothing.
func grown(buf []float64, n int) []float64 {
	if len(buf) < n {
		return make([]float64, n)
	}
	return buf
}

// phaseSetPre loads the inverse diagonal into each part's compact layout.
func (o *PartOperator) phaseSetPre(shard int) error {
	ps, op := o.l.parts[shard], o.parts[shard]
	for i := range op.invDiag {
		op.invDiag[i] = 1 / o.ga[ps.globalOf[i]]
	}
	return nil
}

// compileAMG builds the part-local views of a shared AMG level: each part's
// aggregate id list, member CSR in local compact indices (member canonical
// order is preserved — compact index = canonical position − part start), and
// the owned-cell → aggregate map for prolongation. Aggregates are
// block-bounded and parts own whole blocks, so every aggregate lands wholly
// in one part and restriction is a disjoint write into the shared coarse
// vector.
func (o *PartOperator) compileAMG(lvl *amgLevel) error {
	p, starts := o.l.part, o.l.starts
	for _, op := range o.parts {
		op.aggID = op.aggID[:0]
		op.aggPtr = op.aggPtr[:0]
		op.aggCells = op.aggCells[:0]
	}
	for a := int32(0); a < int32(lvl.nAgg); a++ {
		c0 := lvl.aggCells[lvl.aggStart[a]]
		me := p.Part[c0]
		op := o.parts[me]
		op.aggID = append(op.aggID, a)
		op.aggPtr = append(op.aggPtr, int32(len(op.aggCells)))
		for k := lvl.aggStart[a]; k < lvl.aggStart[a+1]; k++ {
			g := lvl.aggCells[k]
			if p.Part[g] != me {
				return fmt.Errorf("umesh: AMG aggregate %d spans parts %d and %d — aggregation must stay block-bounded", a, me, p.Part[g])
			}
			op.aggCells = append(op.aggCells, lvl.pos[g]-starts[me])
		}
	}
	for me, op := range o.parts {
		op.aggPtr = append(op.aggPtr, int32(len(op.aggCells)))
		ps := o.l.parts[me]
		if len(op.aggOfLoc) < ps.nOwned {
			op.aggOfLoc = make([]int32, ps.nOwned)
		}
		for i := 0; i < ps.nOwned; i++ {
			op.aggOfLoc[i] = lvl.aggOf[ps.globalOf[i]]
		}
	}
	if len(o.coarseR) < lvl.nAgg {
		o.coarseR = make([]float64, lvl.nAgg)
		o.coarseE = make([]float64, lvl.nAgg)
	}
	o.amg = lvl
	return nil
}
