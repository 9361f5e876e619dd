package umesh

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/exec"
	"repro/internal/physics"
	"repro/internal/solver"
)

// This file is the §8 extension carried onto the partitioned unstructured
// runtime: the flux kernel as a matrix-free linear operator for an iterative
// Krylov method. USystem freezes one backward-Euler pressure step of Eq. (2)
// over an unstructured mesh — the repository's one pressure system: a
// structured mesh gets it through FromStructured, porosity included;
// UHostOperator applies it serially in float64 — the reference every
// partitioned solve is measured against; PartOperator is the part-resident
// operator: the whole Krylov working set (CG's x, b, r, z, p and A·p) lives
// in each part's compact local layout (owned-first + halo blocks) for the
// whole solve, so a solve performs exactly one initial scatter and one final
// gather instead of one global round-trip per operator application.
//
// Execution model: every vector kernel exists once, as a parameterized shard
// kernel (shard*) that CompileProgram (program.go) captures into an exec.Plan
// step. A compiled program runs a whole stretch of the Krylov recurrence as
// one SPMD plan: one dispatch and the counted minimum of barriers, with the
// solver's scalar recurrence running inside the barriers as step actions.
// Compiled programs are the only way vectors are computed on; the three
// host-driven phases left (scatter, gather, preconditioner-diagonal load) move
// data between global slices and the part layouts.
//
// Rows are a fixed-width table built once per operator (the row store,
// below); one kernel, opPart.sweep (kernels.go), is its only reader, and
// hostFluxRow/UHostOperator.Apply stay the independently written oracle of its
// arithmetic.
//
// The operator is built on a compiled Layout (layout.go): the parts' compact
// numbering, the direct-write send plans derived from the halo lists (pushHalo
// moves a resident vector's sent owned values straight into the neighbors'
// halo blocks of the same vector) and the worker pool are the layout's; the operator adds the
// resident vectors, the row store and the reduction blocks.
//
// Determinism discipline: every inner product is accumulated per canonical
// block in compact (canonical RCB) order, and the block partials are folded
// by treeFold — a fixed binary tree that is a function of the block
// structure only. The serial reference space reduces with the identical tree,
// so partitioned solves are bit-identical across parts {1, 2, 4, 8, ... up to
// 2^reductionDepth} × any worker count, and bit-identical to the serial
// solve.

// DefaultPorosity is the constant porosity a pressure system assumes on a
// mesh with no per-cell porosity field.
const DefaultPorosity = 0.2

// USystem is one backward-Euler step of Eq. (2) on an unstructured mesh,
// linearized around the reference state with frozen face mobility λ:
//
//	(V·φ·ρref·cf/Δt)·δp_K − Σ_L Υ_KL·λ·(δp_L − δp_K) = b_K
//
// The accumulation diagonal makes the matrix strictly SPD.
type USystem struct {
	U *Mesh
	// Mobility is the frozen face mobility λ = ρref/μ.
	Mobility float64
	// Accum is the per-cell accumulation coefficient V·φ·ρref·cf/Δt.
	Accum []float64

	// preMu guards the memoized preconditioner setup state below: the
	// matrix diagonal every rung scales by, the AMG hierarchy (aggregations,
	// A_c and the factored level-2 Galerkin matrix, assembled once per system
	// and reused by every solve and every transient step, serial and
	// partitioned alike) and the Chebyshev spectral bound.
	preMu   sync.Mutex
	diag    []float64
	amgLvl  *amgLevel
	amgErr  error
	chebTop float64
}

// NewUSystem freezes the coefficients of a backward-Euler step of length dt.
// φ is the mesh's per-cell Porosity when it has one — porosity must then be
// 0 — and otherwise the constant porosity (0 selects DefaultPorosity).
func NewUSystem(u *Mesh, fl physics.Fluid, dt, porosity float64) (*USystem, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if err := fl.Validate(); err != nil {
		return nil, err
	}
	if dt <= 0 {
		return nil, fmt.Errorf("umesh: time step must be positive, got %g", dt)
	}
	if u.Porosity != nil && porosity != 0 {
		return nil, fmt.Errorf("umesh: constant porosity %g given for a mesh with per-cell porosity", porosity)
	}
	if porosity == 0 {
		porosity = DefaultPorosity
	}
	acc := make([]float64, u.NumCells)
	for i := range acc {
		phi := porosity
		if u.Porosity != nil {
			phi = u.Porosity[i]
		}
		if !(phi > 0 && phi <= 1) {
			return nil, fmt.Errorf("umesh: porosity %g outside (0, 1] at cell %d", phi, i)
		}
		acc[i] = u.Volume[i] * phi * fl.RhoRef * fl.Compressibility / dt
		if acc[i] <= 0 {
			return nil, fmt.Errorf("umesh: non-positive accumulation at cell %d (volume %g, cf %g)",
				i, u.Volume[i], fl.Compressibility)
		}
	}
	return &USystem{U: u, Mobility: fl.RhoRef / fl.Viscosity, Accum: acc}, nil
}

// Validate checks the system against its mesh.
func (s *USystem) Validate() error {
	if s.U == nil {
		return fmt.Errorf("umesh: system has no mesh")
	}
	if len(s.Accum) != s.U.NumCells {
		return fmt.Errorf("umesh: accumulation covers %d cells, mesh has %d", len(s.Accum), s.U.NumCells)
	}
	if s.Mobility <= 0 || math.IsNaN(s.Mobility) {
		return fmt.Errorf("umesh: non-positive mobility %g", s.Mobility)
	}
	return nil
}

// Diagonal returns the matrix diagonal every preconditioner rung scales by:
// accumulation plus the sum of the cell's face conductances, accumulated in
// adjacency order (the same order the operators use). It is computed once per
// system and shared, so callers must treat it as read-only.
func (s *USystem) Diagonal() []float64 {
	s.preMu.Lock()
	if s.diag == nil {
		s.diag = make([]float64, s.U.NumCells)
		lam := s.Mobility
		for c := range s.diag {
			_, trans := s.U.halfFaces(c)
			sum := s.Accum[c]
			for _, t := range trans {
				sum += t * lam
			}
			s.diag[c] = sum
		}
	}
	d := s.diag
	s.preMu.Unlock()
	return d
}

// treeFold sums v by a fixed binary tree split at n/2 — a function of the
// slice length only. It is the one reduction combiner of the solve path:
// the serial reference and every PartOperator fold their canonical block
// partials through it, so the summation tree is identical for every part
// and worker count.
func treeFold(v []float64) float64 {
	switch len(v) {
	case 0:
		return 0
	case 1:
		return v[0]
	case 2:
		return v[0] + v[1]
	}
	mid := len(v) / 2
	return treeFold(v[:mid]) + treeFold(v[mid:])
}

// hostFluxRow is the serial flux-row kernel, the oracle's spelling of a row:
// the cell's face fluxes in adjacency order, with degree-4 rows (the bulk of
// every mesh here) summed pairwise as (f0+f1)+(f2+f3) and every other degree
// left to right from zero (hostFluxRowSlow) — the associations the packed
// sweep of the part-resident operator reproduces, which is what keeps host and
// resident applications bit-identical. It reads the mesh's own adjacency and
// multiplies Υ·λ per face, and is kept apart from opPart.sweep on purpose: the
// two are written independently and compared bit for bit. (It does not inline
// into UHostOperator.Apply — cost 151 against the budget of 80.)
func hostFluxRow(nbrs []int32, trans []float64, lam float64, x []float64, xc float64) float64 {
	if len(nbrs) == 4 && len(trans) == 4 {
		f0 := trans[0] * lam * (x[nbrs[0]] - xc)
		f1 := trans[1] * lam * (x[nbrs[1]] - xc)
		f2 := trans[2] * lam * (x[nbrs[2]] - xc)
		f3 := trans[3] * lam * (x[nbrs[3]] - xc)
		return (f0 + f1) + (f2 + f3)
	}
	return hostFluxRowSlow(nbrs, trans, lam, x, xc)
}

//go:noinline
func hostFluxRowSlow(nbrs []int32, trans []float64, lam float64, x []float64, xc float64) float64 {
	flux := 0.0
	for i, nb := range nbrs {
		flux += trans[i] * lam * (x[nb] - xc)
	}
	return flux
}

// UHostOperator applies the system serially in float64 — the reference the
// partitioned operator must match bit-for-bit.
type UHostOperator struct {
	Sys *USystem
}

// Size implements solver.Operator.
func (h *UHostOperator) Size() int { return h.Sys.U.NumCells }

// Diagonal implements solver.Operator: the system's diagonal.
func (h *UHostOperator) Diagonal() []float64 { return h.Sys.Diagonal() }

// Apply computes dst = A·x with the cell-based sweep in adjacency order.
func (h *UHostOperator) Apply(dst, x []float64) error {
	u := h.Sys.U
	if len(dst) != len(x) || len(x) != u.NumCells {
		return fmt.Errorf("umesh: host operator size mismatch")
	}
	lam := h.Sys.Mobility
	for c := 0; c < u.NumCells; c++ {
		nbrs, trans := u.halfFaces(c)
		xc := x[c]
		dst[c] = h.Sys.Accum[c]*xc - hostFluxRow(nbrs, trans, lam, x, xc)
	}
	return nil
}

// ReferenceSpace builds the serial solve-side space for a system: the
// solver's reference SliceSpace over op, given the two things that make it the
// oracle of the partitioned runtime — the canonical blocked reduction
// (products accumulate flat in canonical order within each block, block
// partials fold through treeFold: the exact sum every PartOperator takes, for
// every part count) and the reference rungs of the preconditioner ladder
// (precond.go), built from the system. op is nil for the system's own
// UHostOperator; any other operator must apply the same matrix (the
// structured front end passes the dataflow kernel), so solves through it
// differ from the host solve only in the applications.
func ReferenceSpace(sys *USystem, op solver.Operator) *solver.SliceSpace {
	h := &UHostOperator{Sys: sys}
	if op == nil {
		op = h
	}
	order, blocks := CanonicalOrder(sys.U), canonicalBlocks(sys.U.NumCells, reductionDepth)
	sums := make([]float64, len(blocks))
	return &solver.SliceSpace{
		Operator: op,
		Dot: func(a, b []float64) float64 {
			for bi := range blocks {
				lo, hi := blockSpan(blocks, bi, len(order))
				acc := 0.0
				for _, c := range order[lo:hi] {
					acc += a[c] * b[c]
				}
				sums[bi] = acc
			}
			return treeFold(sums)
		},
		Rung: func(kind solver.PrecondKind, diag []float64) (func(z, r []float64), error) {
			return referenceRung(h, kind, diag)
		},
	}
}

// The row store. A part's owned flux rows live in one of two arrays, both
// premultiplied (w = Υ·λ, one multiply less per face) and both indexed by the
// row's rank among the rows of its kind in compact order:
//
//   - degree-4 rows — the bulk of every mesh here — are packed quadRow
//     records: four weights and four local neighbor indices in adjacency
//     order, 48 bytes a row with no header, degree or row pointer;
//   - every other degree is a row of one flat CSR (genStart/gen), 16 bytes an
//     entry.
//
// Rows are never looked up one at a time. A part's owned range is compiled
// once into rowSegs — runs of consecutive compact rows that are all packed or
// all general — and opPart.sweep walks a run with every per-row stream
// (accum, x, dst, the records) resliced to the run length, so the neighbor
// gathers are the only per-row bounds checks left.

// quadRow is one packed degree-4 flux row.
type quadRow struct {
	t  [4]float64 // premultiplied weights Υ·λ, adjacency order
	li [4]uint32  // the neighbors' local indices
}

// nbrEntry is one face of a general (degree ≠ 4) row: the premultiplied
// weight and the neighbor's local index, one 16-byte record.
type nbrEntry struct {
	t  float64
	li uint32
	_  uint32
}

// rowSeg is a run of the consecutive compact rows [lo, lo+n), all packed or
// all general; first is the rank of row lo in quad (packed) or genStart
// (general), and the rest of the run follows it there. Runs are also cut at
// the reduction blocks' ends, and the last run of each block carries the
// block's blockSums slot in flush (−1 everywhere else), so a sweep can fuse
// an inner product.
type rowSeg struct {
	lo, n  int32
	first  int32
	flush  int32
	packed bool
}

// opPart is the operator's per-part working set: the resident Krylov
// vectors in the part's compact local layout, the resident inverse diagonal,
// and the row store. Everything is O(owned+halo) per vector.
type opPart struct {
	// vecs holds the resident vectors, each owned cells first then halo
	// blocks. Only Apply maintains halo entries (for its input vector); all
	// vector algebra runs over owned entries.
	vecs [][]float64
	// invDiag is the resident Jacobi inverse diagonal over owned cells.
	invDiag []float64
	// accum is the system's accumulation coefficient in the part's compact
	// layout, so the row sweep never chases a global index.
	accum []float64
	// quad, genStart and gen are the row store (see quadRow): the packed
	// degree-4 rows, and general row g = gen[genStart[g]:genStart[g+1]].
	// Only sweep reads them, and only through rows.
	quad     []quadRow
	genStart []int32
	gen      []nbrEntry
	// rows is the owned range compiled into runs, in compact order and cut
	// at the reduction blocks (buildRows): the one row list every sweep
	// walks.
	rows []rowSeg
	// blkLo/blkHi/blkOut segment the part's owned range into its canonical
	// reduction blocks (compact-index [lo, hi) → blockSums[out]): every
	// reduction accumulates flat within a block and the block partials fold
	// through treeFold, the summation tree that is identical for every part
	// count.
	blkLo, blkHi, blkOut []int32
	comm                 CommCounters

	// Preconditioner-resident state (SetPrecond): the Chebyshev direction
	// vector, the scratch destination of in-preconditioner operator
	// applications, and the part-local view of the AMG aggregates (global
	// aggregate ids, member CSR over local indices, owned-cell → aggregate).
	pd, pw                            []float64
	aggID, aggPtr, aggCells, aggOfLoc []int32
}

// owned is resident vector v without its halo blocks — the part's own entries,
// which is all that vector algebra touches.
func (op *opPart) owned(v int) []float64 { return window(op.vecs[v], 0, len(op.accum)) }

// PhaseSeconds is the per-phase wall-clock breakdown of a part-resident
// solve, accumulated on the orchestrator around each barriered step:
//
//   - Exchange: whole-vector transfers between global and part layouts —
//     the solve's one scatter (Load2) and one gather (Store);
//   - Compute: the operator-application steps (the per-neighbor
//     direct-write halo pushes and the row sweep);
//   - Reduce: the fused vector-algebra steps (axpy/dot/preconditioner
//     updates with their per-block partial reductions and tree folds).
type PhaseSeconds struct {
	Exchange float64 `json:"exchange"`
	Compute  float64 `json:"compute"`
	Reduce   float64 `json:"reduce"`
}

// Total is the summed breakdown.
func (p PhaseSeconds) Total() float64 { return p.Exchange + p.Compute + p.Reduce }

// PartOperator is the matrix-free part-resident operator: a
// solver.ProgramSpace, so CG keeps its whole working set in the parts'
// compact layouts, scatters once, runs compiled phase programs
// (program.go), and gathers once. It is also a plain solver.Operator: Apply is
// scatter → a one-op program → gather. Steady-state Apply, scatter, gather
// and every compiled program execution allocate nothing.
//
// A PartOperator is driven by one goroutine at a time. Its partition is an
// RCB partition — at most reductionDepth (8) bisection levels, up to
// MaxParts parts — so its reductions are bit-identical for every part count
// (see CanonicalOrder); NewPartOperator refuses any other.
type PartOperator struct {
	Sys *USystem

	l     *Layout
	parts []*opPart

	// blockSums/blockSums2 hold the canonical block partials of the current
	// reduction (disjoint per-part writes), treeFolded in a barrier action.
	blockSums, blockSums2 []float64

	// Staged inputs of the host-driven phases (set per call; their one-step
	// plans are pre-built so dispatch allocates nothing): ga/gb/gdst are the
	// global slices a scatter, gather or preconditioner-diagonal load moves,
	// va/vb the resident vectors a scatter or gather addresses.
	ga, gb, gdst []float64
	va, vb       int

	loadPlan, storePlan, setPrePlan *exec.Plan
	// applyProg is Apply's one-op program V(1) = A·V(0).
	applyProg solver.Program

	// preKind is the installed preconditioner ladder rung (SetPrecond), read
	// by emitPrecond when a program is compiled.
	preKind solver.PrecondKind
	// cheb holds the installed Chebyshev coefficients; amg the installed
	// level with its shared coarse vectors.
	cheb             chebCoeffs
	amg              *amgLevel
	coarseR, coarseE []float64

	// baseBarriers/baseDispatches snapshot the pool counters at operator
	// construction, so Comm reports this operator's own synchronization.
	baseBarriers, baseDispatches uint64

	// Applications counts operator applications (kernel runs of the solve —
	// the §3 "Algorithm 1 applied N times" pattern, driven by Krylov).
	Applications int
	// Comm accumulates halo traffic and synchronization over all
	// applications. Float64 payloads are counted as two 32-bit words each,
	// keeping the word-level accounting comparable with PartEngine's float32
	// counters.
	Comm CommCounters
	// Scatters and Gathers count whole-vector global transfers — the
	// part-resident acceptance metric: exactly one of each per solve.
	Scatters, Gathers int
	// Phase is the accumulated per-phase wall-clock breakdown.
	Phase PhaseSeconds
}

// NewPartOperator builds the part-resident operator on a compiled layout of
// the system's mesh, which must partition it canonically (see
// compileReduction). The layout is shared, not owned: the caller closes it.
func NewPartOperator(l *Layout, sys *USystem) (*PartOperator, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.U != l.u {
		return nil, fmt.Errorf("umesh: operator system is not the layout's mesh")
	}
	o := &PartOperator{Sys: sys, l: l}
	o.baseBarriers, o.baseDispatches = l.pool.Counters()
	o.parts = make([]*opPart, len(l.parts))
	for me, ps := range l.parts {
		op := &opPart{
			invDiag: make([]float64, ps.nOwned),
			accum:   make([]float64, ps.nOwned),
		}
		for i := range op.accum {
			op.accum[i] = sys.Accum[ps.globalOf[i]]
		}
		o.parts[me] = op
	}
	if err := o.compileReduction(); err != nil {
		return nil, err
	}
	for me, op := range o.parts {
		op.buildRows(l.parts[me], sys.Mobility)
	}
	// The host-driven phases are one-step plans.
	one := func(phase func(int) error, bucket *float64) *exec.Plan {
		b := planBuilder{o: o}
		b.add(phase, bucket)
		return l.pool.NewPlan(b.steps)
	}
	o.loadPlan = one(o.phaseLoad2, &o.Phase.Exchange)
	o.storePlan = one(o.phaseStore, &o.Phase.Exchange)
	o.setPrePlan = one(o.phaseSetPre, &o.Phase.Reduce)
	o.Reserve(2)
	var err error
	if o.applyProg, err = o.CompileProgram([]solver.ProgOp{{Kind: solver.OpApply, V1: 1, V2: 0}}); err != nil {
		return nil, err
	}
	return o, nil
}

// Size implements solver.Operator.
func (o *PartOperator) Size() int { return o.l.u.NumCells }

// Diagonal implements solver.Operator: the system's diagonal.
func (o *PartOperator) Diagonal() []float64 { return o.Sys.Diagonal() }

// compileReduction assigns each part its canonical reduction blocks. The
// partition must be what RCB builds: each part owns one run of the canonical
// order, in that order, and every part boundary is a block boundary (at most
// reductionDepth levels) — so the parts share the one global block structure
// and the fold is part-count independent. Any other partition is an error.
func (o *PartOperator) compileReduction() error {
	n, starts, order := o.l.u.NumCells, o.l.starts, CanonicalOrder(o.l.u)
	for me, ps := range o.l.parts {
		if !slices.Equal(ps.globalOf[:ps.nOwned], order[starts[me]:starts[me+1]]) {
			return fmt.Errorf("umesh: part %d does not own a run of the canonical order — partition with RCB", me)
		}
	}
	blocks := canonicalBlocks(n, reductionDepth)
	o.blockSums = make([]float64, len(blocks))
	o.blockSums2 = make([]float64, len(blocks))
	me := 0
	for bi := range blocks {
		lo, hi := blockSpan(blocks, bi, n)
		for lo >= starts[me+1] {
			me++
		}
		if hi > starts[me+1] {
			return fmt.Errorf("umesh: part %d starts inside canonical block %d — more than %d parts", me+1, bi, MaxParts)
		}
		op := o.parts[me]
		op.blkLo = append(op.blkLo, lo-starts[me])
		op.blkHi = append(op.blkHi, hi-starts[me])
		op.blkOut = append(op.blkOut, int32(bi))
	}
	return nil
}

// buildRows fills the part's row store from the layout's adjacency and
// compiles the owned range into runs. It needs the reduction blocks
// (compileReduction), which tile the owned range without a gap or an empty
// block (a part owning no row has no run and is never swept).
func (op *opPart) buildRows(ps *partLayout, lam float64) {
	nQuad := 0
	for i := 0; i < ps.nOwned; i++ {
		if ps.rowStart[i+1]-ps.rowStart[i] == 4 {
			nQuad++
		}
	}
	op.quad = make([]quadRow, 0, nQuad)
	op.genStart = make([]int32, 0, ps.nOwned-nQuad+1)
	op.gen = make([]nbrEntry, 0, len(ps.nbrLocal)-4*nQuad)
	blk := 0
	for i := int32(0); i < int32(ps.nOwned); i++ {
		lo, hi := ps.rowStart[i], ps.rowStart[i+1]
		packed := hi-lo == 4
		// A run grows while its rows are of one kind and in one block: the
		// row that opens a block closes the previous block's last run.
		last := len(op.rows) - 1
		if i == op.blkHi[blk] {
			op.rows[last].flush = op.blkOut[blk]
			blk++
		}
		if last < 0 || op.rows[last].flush >= 0 || op.rows[last].packed != packed {
			first := int32(len(op.genStart))
			if packed {
				first = int32(len(op.quad))
			}
			op.rows = append(op.rows, rowSeg{lo: i, first: first, flush: -1, packed: packed})
		}
		op.rows[len(op.rows)-1].n++
		if packed {
			var q quadRow
			for k := range q.t {
				q.t[k] = ps.nbrTrans[int(lo)+k] * lam
				q.li[k] = uint32(ps.nbrLocal[int(lo)+k])
			}
			op.quad = append(op.quad, q)
			continue
		}
		op.genStart = append(op.genStart, int32(len(op.gen)))
		for j := lo; j < hi; j++ {
			op.gen = append(op.gen, nbrEntry{t: ps.nbrTrans[j] * lam, li: uint32(ps.nbrLocal[j])})
		}
	}
	op.genStart = append(op.genStart, int32(len(op.gen)))
	if len(op.rows) > 0 {
		op.rows[len(op.rows)-1].flush = op.blkOut[blk]
	}
}

// finishApply folds the parts' halo traffic after an application (a barrier
// action; the program's Run refreshes the barrier/dispatch counts after it).
func (o *PartOperator) finishApply() {
	o.Applications++
	o.Comm.HaloWords, o.Comm.Messages = 0, 0
	for _, op := range o.parts {
		o.Comm.HaloWords += op.comm.HaloWords
		o.Comm.Messages += op.comm.Messages
	}
}

// syncCounters refreshes the operator's barrier/dispatch accounting from the
// pool's lifetime counters.
func (o *PartOperator) syncCounters() {
	b, d := o.l.pool.Counters()
	o.Comm.Barriers = b - o.baseBarriers
	o.Comm.Dispatches = d - o.baseDispatches
}

// sendHalo pushes the part's planned owned values of resident vector xv into
// the neighbors' halo blocks of the same vector and books the traffic, a
// float64 as two 32-bit words.
func (o *PartOperator) sendHalo(shard, xv int) {
	op := o.parts[shard]
	values, messages := pushHalo(o.l.parts[shard].sends, op.vecs[xv], func(part int) []float64 { return o.parts[part].vecs[xv] })
	op.comm.HaloWords += 2 * values
	op.comm.Messages += messages
}

// Apply computes dst = A·x on global slices: scatter, the one-op apply
// program, gather — what makes the operator a plain solver.Operator. Steady
// state allocates nothing. Solves never come through here: they keep their
// vectors resident and pay the scatter and gather once per solve.
func (o *PartOperator) Apply(dst, x []float64) error {
	if len(dst) != len(x) || len(x) != o.Size() {
		return fmt.Errorf("umesh: partitioned operator size mismatch")
	}
	o.Load2(0, x, 1, x)
	if _, err := o.applyProg.Run(); err != nil {
		return err
	}
	o.Store(dst, 1)
	return nil
}

// Reserve implements solver.ProgramSpace: it grows each part's resident
// vector pool to n vectors. Growing allocates; re-reserving does not.
func (o *PartOperator) Reserve(n int) {
	for me, op := range o.parts {
		for len(op.vecs) < n {
			op.vecs = append(op.vecs, make([]float64, len(o.l.parts[me].globalOf)))
		}
	}
}

// Load2 scatters two global vectors into resident vectors in one phase — the
// solve's single scatter.
func (o *PartOperator) Load2(v1 solver.Vec, src1 []float64, v2 solver.Vec, src2 []float64) {
	o.va, o.ga, o.vb, o.gb = int(v1), src1, int(v2), src2
	// phaseLoad2 cannot fail; the pool propagates no error here.
	_, _ = o.loadPlan.Execute()
	o.Scatters++
}

func (o *PartOperator) phaseLoad2(shard int) error {
	ps, op := o.l.parts[shard], o.parts[shard]
	a, b := op.vecs[o.va], op.vecs[o.vb]
	for i := 0; i < ps.nOwned; i++ {
		g := ps.globalOf[i]
		a[i] = o.ga[g]
		b[i] = o.gb[g]
	}
	return nil
}

// Store gathers a resident vector into global order — the solve's single
// gather.
func (o *PartOperator) Store(dst []float64, v solver.Vec) {
	o.va, o.gdst = int(v), dst
	// phaseStore cannot fail; the pool propagates no error here.
	_, _ = o.storePlan.Execute()
	o.Gathers++
}

func (o *PartOperator) phaseStore(shard int) error {
	ps, op := o.l.parts[shard], o.parts[shard]
	a := op.vecs[o.va]
	for i := 0; i < ps.nOwned; i++ {
		o.gdst[ps.globalOf[i]] = a[i]
	}
	return nil
}

// NewSystemSpace builds the solve-side space of a system for a partition of
// its mesh: the serial reference (ReferenceSpace) when p is nil,
// otherwise a part-resident PartOperator on a freshly compiled layout. It
// returns the space and a close function releasing the layout's pool (a no-op
// for the serial path); either preconditions from sys.Diagonal(). Both
// the transient loop and the massivefv facade build their solves through it,
// so the two paths cannot drift apart.
func NewSystemSpace(p *Partition, sys *USystem, workers int) (solver.ProgramSpace, func(), error) {
	if p == nil {
		return ReferenceSpace(sys, nil), func() {}, nil
	}
	l, err := CompileLayout(sys.U, p, workers)
	if err != nil {
		return nil, nil, err
	}
	po, err := NewPartOperator(l, sys)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	return po, l.Close, nil
}

// compile-time interface checks
var (
	_ solver.Operator     = (*UHostOperator)(nil)
	_ solver.Operator     = (*PartOperator)(nil)
	_ solver.ProgramSpace = (*PartOperator)(nil)
)
