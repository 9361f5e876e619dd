package umesh

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/solver"
)

// This file is the preconditioner ladder on the unstructured implicit-solve
// path: three rungs above Jacobi, each realized in both spaces a solve can run
// in — as a reference rung over global-order slices (referenceRung, what the
// serial reference space's Rung field builds: the serial oracle) and as plan
// steps on PartOperator, whose sequence emitPrecond (program.go) compiles into
// the phase programs — so golden transient trajectories stay bit-identical
// between the serial solve and every partitioned configuration.
//
// Every rung's arithmetic is written once. The Chebyshev and AMG rungs are
// elementwise updates, operator applications and per-aggregate sums, none of
// which cares how a vector is laid out, so their float expressions live in the
// layout-free kernels below (chebInit, chebStep, amgPre, amgResidualSum,
// amgProlong, amgPost, and the Chebyshev scalar recurrence chebCoeffs.rounds)
// and both realizations are compositions of the same calls. Block-SSOR's
// sweeps are sequential recurrences through triangular index lists (ssorLists)
// over rows in canonical order: a part's compact index is a canonical position
// minus the part's start, so one builder fed the layout's rows serves a part,
// the same builder fed the mesh adjacency walked through CanonicalOrder serves
// the reference — which gathers r into canonical order, runs the one sweep and
// scatters z back — and an independently written dense block solve in
// precond_test.go is the sweep's oracle.
//
//   - SSOR (symmetric Gauss–Seidel, ω = 1) restricted to the canonical
//     reduction blocks: couplings crossing a block boundary are dropped from
//     the preconditioner (the matrix itself is untouched), which keeps M
//     symmetric positive definite, makes every block's triangular sweep an
//     independent unit of work, and — because an RCB part owns whole
//     canonical blocks — makes the partitioned application one local phase
//     with no halo exchange and no part-count dependence.
//
//   - Chebyshev: a fixed-degree polynomial of the Jacobi-scaled operator
//     D⁻¹A on the interval [b/30, b], where b ≥ λmax(D⁻¹A) is the Gershgorin
//     row-sum bound. The application is chebDegree−1 operator applications
//     plus elementwise updates — no triangular solves, so the resident form
//     reuses the fused exchange-overlapped application phases on a scratch
//     destination.
//
//   - Two-level aggregation AMG: greedy distance-2 face-adjacency
//     aggregation walked in canonical order and bounded by the canonical
//     blocks (an aggregate never crosses a block, hence never a part), a
//     Galerkin coarse matrix assembled once per USystem into a skyline of
//     Lᵀ and Cholesky-factored in place (the aggregates are renumbered by
//     reverse Cuthill–McKee, which keeps the rows short; only the envelope
//     is stored, factored and multiplied), and a V-cycle of
//     weighted-Jacobi smoothing around the exact coarse correction. The
//     coarse residual restriction is a per-part disjoint write into one
//     shared coarse vector (the "coarse-level halo plan" degenerates to
//     nothing precisely because aggregates are block-bounded), and the
//     coarse triangular solves run host-serial — the identical code and data
//     on the serial and partitioned paths.
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
// Two-level aggregation AMG: hierarchy construction (once per USystem)
// ---------------------------------------------------------------------------

// amgLevel is the two-level AMG hierarchy of one USystem: the cell →
// aggregate map, the aggregate member lists in canonical order, and the
// skyline Cholesky factor of the Galerkin coarse matrix. It is assembled once
// per system (USystem.amg) and shared by the reference rung and every
// PartOperator, so all paths correct through literally the same factor.
type amgLevel struct {
	nAgg int
	// aggOf maps cell → aggregate; aggStart/aggCells list each aggregate's
	// member cells in canonical order (the shared restriction summation
	// order).
	aggOf              []int32
	aggStart, aggCells []int32
	// pos is the canonical position of each cell (the inverse of
	// CanonicalOrder) — kept for the part-local aggregate compilation.
	pos []int32
	// fac is the Cholesky factor as a skyline of Lᵀ, the one layout both
	// substitution sweeps walk at unit stride: row i is
	// fac[rowStart[i]:rowStart[i+1]] = L[i][i], L[i+1][i], …, L[last][i] —
	// the diagonal, then column i of L down to the last row whose envelope
	// reaches it. The structural zeros outside are neither stored nor multiplied.
	rowStart []int
	fac      []float64
}

// amg returns the system's memoized two-level hierarchy, building and
// factoring it on first use.
func (s *USystem) amg() (*amgLevel, error) {
	s.preMu.Lock()
	defer s.preMu.Unlock()
	if s.amgLvl == nil && s.amgErr == nil {
		s.amgLvl, s.amgErr = buildAMGLevel(s)
	}
	return s.amgLvl, s.amgErr
}

// buildAMGLevel aggregates the mesh and assembles + factors the Galerkin
// coarse matrix.
func buildAMGLevel(s *USystem) (*amgLevel, error) {
	u := s.U
	order := CanonicalOrder(u)
	blocks := canonicalBlocks(u.NumCells)
	lvl := &amgLevel{pos: make([]int32, u.NumCells)}
	for k, c := range order {
		lvl.pos[c] = int32(k)
	}

	// Greedy distance-2 aggregation in canonical order, bounded by the
	// canonical blocks: each unassigned seed absorbs its unassigned
	// in-block neighbors (ring 1) and their unassigned in-block neighbors
	// (ring 2). Determinism comes from the fixed seed order (canonical) and
	// the fixed adjacency order of each ring walk.
	lvl.aggOf = make([]int32, u.NumCells)
	for i := range lvl.aggOf {
		lvl.aggOf[i] = -1
	}
	var ring []int32
	nAgg := 0
	for bi := range blocks {
		lo, hi := blockSpan(blocks, bi, len(order))
		inBlock := func(c int32) bool { return lvl.pos[c] >= lo && lvl.pos[c] < hi }
		for k := lo; k < hi; k++ {
			c := order[k]
			if lvl.aggOf[c] >= 0 {
				continue
			}
			aid := int32(nAgg)
			nAgg++
			lvl.aggOf[c] = aid
			ring = ring[:0]
			nbrs, _ := u.halfFaces(int(c))
			for _, nb := range nbrs {
				if lvl.aggOf[nb] < 0 && inBlock(nb) {
					lvl.aggOf[nb] = aid
					ring = append(ring, nb)
				}
			}
			for _, m := range ring {
				nbrs2, _ := u.halfFaces(int(m))
				for _, nb := range nbrs2 {
					if lvl.aggOf[nb] < 0 && inBlock(nb) {
						lvl.aggOf[nb] = aid
					}
				}
			}
		}
	}
	lvl.nAgg = nAgg

	// Renumber aggregates by reverse Cuthill–McKee on the coarse face graph.
	// Raw canonical numbering has O(n) bandwidth — the first RCB bisection
	// plane separates spatially adjacent aggregates by half the numbering —
	// which would make the factor's skyline effectively dense. RCM brings it
	// down to the coarse graph's natural width; the permutation is
	// deterministic (degree then id tie-breaking, computed host-serial once)
	// and invisible to bit-identity: every path indexes the coarse vectors
	// through the same shared level.
	perm := coarseRCM(u, lvl.aggOf, nAgg)
	for c := range lvl.aggOf {
		lvl.aggOf[c] = perm[lvl.aggOf[c]]
	}

	// Member CSR in canonical order: one canonical traversal appends each
	// cell to its aggregate, so every member list is canonically sorted.
	lvl.aggStart = make([]int32, nAgg+1)
	for _, c := range order {
		lvl.aggStart[lvl.aggOf[c]+1]++
	}
	for a := 0; a < nAgg; a++ {
		lvl.aggStart[a+1] += lvl.aggStart[a]
	}
	lvl.aggCells = make([]int32, u.NumCells)
	cursor := append([]int32(nil), lvl.aggStart[:nAgg]...)
	for _, c := range order {
		a := lvl.aggOf[c]
		lvl.aggCells[cursor[a]] = c
		cursor[a]++
	}

	// Skyline of Lᵀ from the face graph: Cholesky fill stays inside the row
	// envelope of the assembled matrix, so L[j][i] can be non-zero only where
	// row j's first coupling is at or before i — row i of Lᵀ runs to the
	// farthest aggregate coupled to any row ≤ i.
	ends := func(f Face) (lo, hi int) {
		a, b := int(lvl.aggOf[f.A]), int(lvl.aggOf[f.B])
		return min(a, b), max(a, b)
	}
	reach := make([]int, nAgg)
	for _, f := range u.Faces {
		lo, hi := ends(f)
		reach[lo] = max(reach[lo], hi)
	}
	start := make([]int, nAgg+1)
	for i, last := 0, 0; i < nAgg; i++ {
		last = max(last, i, reach[i])
		start[i+1] = start[i] + last - i + 1
	}

	// Galerkin assembly into the skyline: per cell the accumulation lands on
	// the aggregate diagonal; per cross-aggregate face the conductance adds to
	// both diagonals and subtracts from the coupling (a face interior to an
	// aggregate contributes exactly zero and is skipped). Assembly order is
	// fixed (cells, then faces), and the level is shared, so the factor is one
	// object for all paths.
	fac := make([]float64, start[nAgg])
	lvl.rowStart, lvl.fac = start, fac
	for c := 0; c < u.NumCells; c++ {
		fac[start[lvl.aggOf[c]]] += s.Accum[c]
	}
	for _, f := range u.Faces {
		lo, hi := ends(f)
		if lo == hi {
			continue
		}
		t := f.Trans * s.Mobility
		fac[start[lo]] += t
		fac[start[hi]] += t
		fac[start[lo]+hi-lo] -= t
	}

	// In-place Cholesky (no pivoting — the Galerkin matrix of an SPD system
	// under a full-rank piecewise-constant prolongation is SPD), one row of
	// Lᵀ at a time: once row k is final, its outer product is subtracted from
	// the rows below it. Every entry (i, j) thus receives its L[i][k]·L[j][k]
	// terms in ascending k, the textbook inner product's order and bits, each
	// pass unit-stride and the exact zeros outside the skyline never formed.
	for k := 0; k < nAgg; k++ {
		row := fac[start[k]:start[k+1]]
		piv := row[0]
		if !(piv > 0) || math.IsInf(piv, 1) {
			return nil, fmt.Errorf("umesh: AMG coarse matrix lost positive definiteness at aggregate %d (pivot %g)", k, piv)
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
	return lvl, nil
}

// coarseRCM computes a reverse Cuthill–McKee permutation of the aggregate
// graph: perm[old] = new. BFS from a minimum-degree seed, neighbors visited
// in (degree, id) order, final order reversed — the classic bandwidth
// reducer, deterministic by construction.
func coarseRCM(u *Mesh, aggOf []int32, nAgg int) []int32 {
	adj := make([][]int32, nAgg)
	seen := make(map[int64]bool, len(u.Faces))
	for _, f := range u.Faces {
		ia, ib := aggOf[f.A], aggOf[f.B]
		if ia == ib {
			continue
		}
		key := int64(ia)*int64(nAgg) + int64(ib)
		if seen[key] {
			continue
		}
		seen[key] = true
		seen[int64(ib)*int64(nAgg)+int64(ia)] = true
		adj[ia] = append(adj[ia], ib)
		adj[ib] = append(adj[ib], ia)
	}
	byDegreeThenID := func(list []int32) {
		sort.Slice(list, func(x, y int) bool {
			dx, dy := len(adj[list[x]]), len(adj[list[y]])
			if dx != dy {
				return dx < dy
			}
			return list[x] < list[y]
		})
	}
	for a := range adj {
		byDegreeThenID(adj[a])
	}
	visited := make([]bool, nAgg)
	rcmOrder := make([]int32, 0, nAgg)
	for len(rcmOrder) < nAgg {
		// Seed each component at its minimum-degree (then minimum-id)
		// unvisited aggregate.
		seed := int32(-1)
		for a := int32(0); a < int32(nAgg); a++ {
			if visited[a] {
				continue
			}
			if seed < 0 || len(adj[a]) < len(adj[seed]) {
				seed = a
			}
		}
		visited[seed] = true
		queue := []int32{seed}
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			rcmOrder = append(rcmOrder, a)
			for _, nb := range adj[a] {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	perm := make([]int32, nAgg)
	for k, a := range rcmOrder {
		perm[a] = int32(nAgg - 1 - k)
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

// solveCoarse solves the factored coarse system L·Lᵀ·ec = rc — host-serial
// and identical on the serial and partitioned paths, both sweeps unit-stride
// over the rows of Lᵀ. The forward sweep is column-oriented: once e_j is
// final it is subtracted from the rows below, so every row still receives its
// terms in ascending j (the row-oriented sweep's bits) as independent updates.
// The backward sweep's first term needs the row just finished, so it stays a
// row-oriented running difference in ascending j.
func (l *amgLevel) solveCoarse(rc, ec []float64) {
	start, fac := l.rowStart, l.fac
	copy(ec, rc)
	for j := 0; j < l.nAgg; j++ {
		row := fac[start[j]:start[j+1]]
		e := ec[j] / row[0]
		ec[j] = e
		subScaled(ec[j+1:], row[1:], e)
	}
	for i := l.nAgg - 1; i >= 0; i-- {
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
// slices (diag arrives validated by solver.CheckPrecond). Chebyshev and the
// AMG V-cycle are the step sequences of emitPrecond with h.Apply for the
// scratch applications and the shared kernels over whole vectors — what
// extends the serial↔partitioned bit-identity guarantee to every rung. It owns
// the inverse diagonal and one scratch vector per application in flight.
// (h.Apply fails only on a length mismatch, which SetPrecond's check of diag
// against Size has excluded — hence the dropped errors.)
func referenceRung(h *UHostOperator, order, blocks []int32, kind solver.PrecondKind, diag []float64) (func(z, r []float64), error) {
	n := len(diag)
	inv := make([]float64, n)
	for i, d := range diag {
		inv[i] = 1 / d
	}
	switch kind {
	case solver.PrecondSSOR:
		// The lists index canonical positions, so the rung carries r, z, 1/d
		// and d in canonical order and permutes on the way in and out.
		pos := make([]int32, n)
		zc, rc, invc, dc := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for k, c := range order {
			pos[c], invc[k], dc[k] = int32(k), inv[c], diag[c]
		}
		var nbrPos []int32
		var lists ssorLists
		blkHi := append(append([]int32(nil), blocks[1:]...), int32(n))
		lists.build(n, blocks, blkHi, h.Sys.Mobility,
			func(k int32) ([]int32, []float64) {
				nbrs, trans := h.Sys.U.halfFaces(int(order[k]))
				nbrPos = nbrPos[:0]
				for _, nb := range nbrs {
					nbrPos = append(nbrPos, pos[nb])
				}
				return nbrPos, trans
			})
		return func(z, r []float64) {
			for k, c := range order {
				rc[k] = r[c]
			}
			lists.sweep(zc, rc, invc, dc)
			for k, c := range order {
				z[c] = zc[k]
			}
		}, nil
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
				rc[a] = amgResidualSum(lvl.aggCells[lvl.aggStart[a]:lvl.aggStart[a+1]], r, w)
			}
			lvl.solveCoarse(rc, ec)
			amgProlong(z, ec, lvl.aggOf)
			_ = h.Apply(w, z)
			amgPost(z, inv, r, w)
		}, nil
	}
	return nil, fmt.Errorf("umesh: %q is not an operator-built preconditioner", kind)
}

// ssorLists is block-SSOR's triangular structure over rows in sweep order —
// canonical positions on the reference side, a part's compact indices (the
// same order, offset by the part's start) on a part: per row the strictly-lower
// and strictly-upper couplings inside the row's block as premultiplied (Υ·λ)
// weights and row indices, in adjacency order, so the sweeps are branch-free
// streams instead of re-filtering every neighbor on every application.
// Couplings that leave the block — every halo neighbor of a part among them —
// are dropped, which is what lets a part sweep with no exchange.
type ssorLists struct {
	blkLo, blkHi []int32 // the blocks, as [lo, hi) row ranges
	loPtr, upPtr []int32
	loI, upI     []int32
	loW, upW     []float64
}

// build compiles the lists for n rows in the given blocks; row(i) returns row
// i's neighbors as row indices (anything outside [0, n) is out of every
// block) and its transmissibilities. Rebuilding reuses the buffers, so
// re-installing the rung allocates nothing.
func (s *ssorLists) build(n int, blkLo, blkHi []int32, lam float64, row func(i int32) ([]int32, []float64)) {
	if cap(s.loPtr) < n+1 {
		s.loPtr, s.upPtr = make([]int32, n+1), make([]int32, n+1)
	}
	s.blkLo, s.blkHi = blkLo, blkHi
	s.loPtr, s.upPtr = s.loPtr[:n+1], s.upPtr[:n+1]
	s.loI, s.loW, s.upI, s.upW = s.loI[:0], s.loW[:0], s.upI[:0], s.upW[:0]
	for b, lo := range blkLo {
		hi := blkHi[b]
		for i := lo; i < hi; i++ {
			nbrs, trans := row(i)
			for j, nb := range nbrs {
				if nb < lo || nb >= hi {
					continue
				}
				if nb < i {
					s.loW = append(s.loW, trans[j]*lam)
					s.loI = append(s.loI, nb)
				} else if nb > i {
					s.upW = append(s.upW, trans[j]*lam)
					s.upI = append(s.upI, nb)
				}
			}
			s.loPtr[i+1] = int32(len(s.loI))
			s.upPtr[i+1] = int32(len(s.upI))
		}
	}
}

// sweep is the block-SSOR application z = M⁻¹·r over row-indexed vectors,
// M = (D+L_B)·D⁻¹·(D+L_Bᵀ) with L_B the in-block strictly-lower couplings:
// per block, a forward Gauss–Seidel sweep through the lower lists, then a
// backward sweep through the upper lists with the diagonal scaling fused in
// (inv = 1/d). It reads nothing outside the blocks, and no block reads
// another, so all forward sweeps run before all backward ones: each half is a
// function of its own that keeps its three lists and three vectors in
// registers (as one loop nest the sweep ran 7 % slower).
func (s *ssorLists) sweep(z, r, inv, d []float64) {
	ssorForward(s.blkLo, s.blkHi, s.loPtr, s.loI, s.loW, z, r, inv)
	ssorBackward(s.blkLo, s.blkHi, s.upPtr, s.upI, s.upW, z, d, inv)
}

func ssorForward(blkLo, blkHi, ptr, idx []int32, w, z, r, inv []float64) {
	for b, lo := range blkLo {
		for i := lo; i < blkHi[b]; i++ {
			acc := 0.0
			for k := ptr[i]; k < ptr[i+1]; k++ {
				acc += w[k] * z[idx[k]]
			}
			z[i] = (r[i] + acc) * inv[i]
		}
	}
}

func ssorBackward(blkLo, blkHi, ptr, idx []int32, w, z, d, inv []float64) {
	for b, lo := range blkLo {
		for i := blkHi[b] - 1; i >= lo; i-- {
			acc := 0.0
			for k := ptr[i]; k < ptr[i+1]; k++ {
				acc += w[k] * z[idx[k]]
			}
			z[i] = (d[i]*z[i] + acc) * inv[i]
		}
	}
}

// ---------------------------------------------------------------------------
// Resident realizations: SetPrecond and the part-local rung state
// ---------------------------------------------------------------------------

// SetPrecond implements solver.ProgramSpace: it installs a ladder rung as the
// operator's resident preconditioner, replacing the previous one. Jacobi is
// the resident inverse diagonal (z_i = (1/d_i)·r_i); the default kind is
// Jacobi with a diagonal and the identity without. The block-structured rungs
// additionally require the partition's reduction blocks to be the global
// canonical blocks (canonical RCB of at most reductionDepth levels), which is
// what makes their sweeps part-count independent. The diagonal is validated
// and reloaded on every call, so a caller mutating the diag contents between
// installs can never leave a stale inverse behind; the cost is one O(owned)
// phase. Installation also sizes the per-part scratch (one buffer per owned
// row) and — for AMG — compiles the part-local aggregate views over the
// system's shared (memoized) level. Programs read the installed rung when they
// are compiled.
func (o *PartOperator) SetPrecond(kind solver.PrecondKind, diag []float64) error {
	if err := solver.CheckPrecond(o.Size(), kind, diag); err != nil {
		return err
	}
	if diag == nil {
		o.preKind, o.usePre = kind, false
		return nil
	}
	rung := kind != solver.PrecondDefault && kind != solver.PrecondJacobi
	if rung && !o.aligned {
		return fmt.Errorf("umesh: %q preconditioning needs a canonical RCB partition of at most %d levels — the canonical blocks are its units of work", kind, reductionDepth)
	}
	// The rung's own state first — a failure leaves the previous
	// preconditioner installed — then the diagonal load.
	switch kind {
	case solver.PrecondSSOR:
		for me, op := range o.parts {
			op.dLoc = grown(op.dLoc, len(op.accum))
			op.ssor.build(len(op.accum), op.blkLo, op.blkHi, o.Sys.Mobility, o.l.parts[me].row)
		}
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
	o.preKind, o.usePre = kind, true
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

// phaseSetPre loads the inverse diagonal into each part's compact layout,
// and the diagonal itself where the part carries one (SSOR).
func (o *PartOperator) phaseSetPre(shard int) error {
	ps, op := o.l.parts[shard], o.parts[shard]
	for i := range op.invDiag {
		op.invDiag[i] = 1 / o.ga[ps.globalOf[i]]
	}
	for i := range op.dLoc {
		op.dLoc[i] = o.ga[ps.globalOf[i]]
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
