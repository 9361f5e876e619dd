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
// Rows are laid out once per operator, as quads of four rows per reduction
// block (the row store, below); one kernel, opPart.sweep (kernels.go), is its only reader, and
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
		if !(acc[i] > 0) || math.IsInf(acc[i], 1) {
			return nil, fmt.Errorf("umesh: accumulation at cell %d is not positive and finite (volume %g, cf %g, dt %g)",
				i, u.Volume[i], fl.Compressibility, dt)
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
// left to right from zero (hostFluxRowSlow) — the associations the row
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

// The row store. A part's owned flux rows are laid out per canonical
// reduction block as quads — four consecutive rows of the block, its last
// quad partial when its length is not a multiple of four — each face
// premultiplied (w = Υ·λ, one multiply less per face). A quad's faces are
// slots, face-major: slot k holds face k of each of its four rows, the
// vector body's operand layout (sweep_amd64.s). A pure quad (four rows of
// degree 4, the bulk of every mesh here) takes four slots; a mixed one as
// many as its widest row, at least four, and a lane past its row's degree
// or past the block's end is a pad (weight 0, neighbor 0) that adds nothing
// to its row.
// opPart.sweep walks a block's quads with every per-row stream (accum, x,
// dst, w) resliced to the block: rows are never looked up one at a time.

// quadSlot is one face of each of a quad's four rows: t[r] and li[r] are the
// weight and the neighbor's local index of row r's face.
type quadSlot struct {
	t  [4]float64
	li [4]uint32
}

// quadHead is what the walk needs of a quad: its rows' degrees (0 for a lane
// past the block's end) and its width, the slots it takes in the store.
type quadHead struct {
	deg   [4]uint32
	width uint32
}

// rowBlock is one canonical reduction block of a part: its owned rows
// [lo, lo+n) in compact order, the blockSums slot its partials go to, and
// its rows in the row store — heads[i] is the quad of rows lo+4i …
// lo+4i+3, whose slots follow the previous quad's in slots.
type rowBlock struct {
	lo, n int
	out   int32
	heads []quadHead
	slots []quadSlot
}

// opPart is the operator's per-part working set: the resident Krylov
// vectors in the part's compact local layout, the resident inverse diagonal,
// and the row store. Everything is O(owned+halo) per vector; the vectors,
// invDiag and accum share one slab, their starts staggered (stripe).
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
	// blocks segment the part's owned range into its canonical reduction
	// blocks, in compact order (compileReduction), and hold the row store
	// (buildRows): every reduction accumulates flat within a block and the
	// block partials fold through treeFold, the summation tree that is
	// identical for every part count.
	blocks []rowBlock
	comm   CommCounters

	// Preconditioner-resident state (SetPrecond): the Chebyshev direction
	// vector, the scratch destination of in-preconditioner operator
	// applications, and the part-local view of the AMG aggregates (the
	// restriction into global aggregate ids over local indices, owned-cell →
	// aggregate).
	pd, pw   []float64
	restrict restriction
	aggOfLoc []int32
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

// PartOperator is the matrix-free part-resident operator: a
// solver.ProgramSpace, so CG keeps its whole working set in the parts'
// compact layouts, scatters once, runs compiled phase programs
// (program.go), and gathers once. Steady-state scatter, gather and every
// compiled program execution allocate nothing. It is not a solver.Operator:
// nothing applies it to global slices outside a compiled program.
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
		op := &opPart{}
		op.stripe(0, ps)
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
	return o, nil
}

// Size implements solver.ProgramSpace.
func (o *PartOperator) Size() int { return o.l.u.NumCells }

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
		op.blocks = append(op.blocks, rowBlock{lo: int(lo - starts[me]), n: int(hi - lo), out: int32(bi)})
	}
	return nil
}

// buildRows lays each reduction block's rows out as quads from the layout's
// adjacency, every block's heads and slots carved from one array of each per
// part. It needs the blocks (compileReduction), which tile the owned range
// without a gap or an empty block.
func (op *opPart) buildRows(ps *partLayout, lam float64) {
	nq := 0
	for _, b := range op.blocks {
		nq += (b.n + 3) / 4
	}
	heads, width := make([]quadHead, nq), 0
	for bi := range op.blocks {
		b := &op.blocks[bi]
		nq = (b.n + 3) / 4
		b.heads, heads = heads[:nq:nq], heads[nq:]
		for qi := range b.heads {
			h := &b.heads[qi]
			h.width = 4
			for r := range min(4, b.n-4*qi) {
				i := b.lo + 4*qi + r
				h.deg[r] = uint32(ps.rowStart[i+1] - ps.rowStart[i])
				h.width = max(h.width, h.deg[r])
			}
			width += int(h.width)
		}
	}
	slots := make([]quadSlot, width)
	for bi := range op.blocks {
		b := &op.blocks[bi]
		q := slots
		for qi, h := range b.heads {
			for r, deg := range h.deg {
				for k := range deg {
					j := ps.rowStart[b.lo+4*qi+r] + int32(k)
					q[k].t[r], q[k].li[r] = ps.nbrTrans[j]*lam, uint32(ps.nbrLocal[j])
				}
			}
			q = q[h.width:]
		}
		width = len(slots) - len(q)
		b.slots, slots = slots[:width:width], q
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

// Reserve implements solver.ProgramSpace: it grows each part's resident
// vector pool to n vectors. Growing allocates; re-reserving does not.
func (o *PartOperator) Reserve(n int) {
	for me, op := range o.parts {
		if len(op.vecs) < n {
			op.stripe(n, o.l.parts[me])
		}
	}
}

// streamSkew is how far, in words mod 512 (4 KiB), each of a part's resident
// streams starts from the one before it: 576 B, nine cache lines, an odd
// number, so up to 64 streams start at distinct offsets mod 4 KiB, at least
// 64 B apart.
const streamSkew = 72

// stripe lays the part's resident streams out in one new slab, contents kept:
// accum, invDiag, then n vectors (new ones zero), each streamSkew words mod
// 512 past the start of the one before. A Jacobi iteration walks all of them
// in lockstep; laid out apart, as a 32 KiB vector of Go's size classes would
// be, each would start at 0 mod 4 KiB, and their loads and stores would alias
// in the memory system's 4 KiB address comparisons and share cache sets.
func (op *opPart) stripe(n int, ps *partLayout) {
	size := len(ps.globalOf)
	stride := size + (streamSkew-size%512+512)%512
	slab := make([]float64, (n+2)*stride)
	next := func(old []float64, length int) []float64 {
		s := slab[:length:length]
		copy(s, old)
		slab = slab[stride:]
		return s
	}
	op.accum, op.invDiag = next(op.accum, ps.nOwned), next(op.invDiag, ps.nOwned)
	vecs := make([][]float64, n)
	copy(vecs, op.vecs)
	for v := range vecs {
		vecs[v] = next(vecs[v], size)
	}
	op.vecs = vecs
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
	_ solver.ProgramSpace = (*PartOperator)(nil)
)
