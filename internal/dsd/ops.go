package dsd

import (
	"fmt"
	"unsafe"

	"repro/internal/cpufeat"
)

// vectorFlux selects the face kernel's vector body (cpufeat.AVX2FMA); only
// tests clear it, to time or check fluxElem alone.
var vectorFlux = cpufeat.AVX2FMA

// Counters accumulates the per-PE instruction, FLOP and traffic statistics
// that Table 4 and the roofline model consume. Counted ops follow the
// paper's accounting (loads = source operands per element, one store per
// element, FMA = 2 FLOPs); SELGT/ACC/FILL are the uncounted class
// (predicated or accumulating moves) reported separately for transparency.
type Counters struct {
	FMUL, FADD, FSUB, FNEG, FMA, FMOV uint64 // counted per element

	SELGT, ACC, FILL uint64 // uncounted class, per element

	Loads, Stores uint64 // counted memory traffic, words
	FabricLoads   uint64 // counted fabric traffic (receives), words

	UncountedLoads, UncountedStores uint64 // traffic of the uncounted class

	// Issues counts instruction issues (one per op call regardless of vector
	// length). The vectorization ablation compares issue counts: a scalar
	// kernel issues Nz times more instructions for the same element count.
	Issues uint64
}

// Flops returns the counted floating-point operations (FMA = 2).
func (c *Counters) Flops() uint64 {
	return c.FMUL + c.FADD + c.FSUB + c.FNEG + 2*c.FMA
}

// MemAccesses returns counted loads+stores (Table 4 reports 406 per cell).
func (c *Counters) MemAccesses() uint64 { return c.Loads + c.Stores }

// Add accumulates other into c.
func (c *Counters) Add(o *Counters) {
	c.FMUL += o.FMUL
	c.FADD += o.FADD
	c.FSUB += o.FSUB
	c.FNEG += o.FNEG
	c.FMA += o.FMA
	c.FMOV += o.FMOV
	c.SELGT += o.SELGT
	c.ACC += o.ACC
	c.FILL += o.FILL
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.FabricLoads += o.FabricLoads
	c.UncountedLoads += o.UncountedLoads
	c.UncountedStores += o.UncountedStores
	c.Issues += o.Issues
}

// opKind enumerates the vector ops for the deferred counter tally. Each op
// call bumps exactly one tally slot (elements + one issue); Counters folds
// the slots into the full per-field accounting on demand, so the hot loop
// pays two additions instead of four-to-six field updates per call.
type opKind uint8

const (
	opMulVV opKind = iota
	opMulVS
	opAddVV
	opSubVV
	opSubVS
	opNegV
	opFmaVSS
	opFmaVVV
	opSelGtV
	opAccV
	opFill
	opMovRecv
	numOpKinds
)

// opTally is one op kind's deferred accounting: total elements processed and
// total instruction issues.
type opTally struct {
	elems, issues uint64
}

// Engine executes the vector ISA against one PE memory, updating counters.
// An Engine is owned by a single goroutine (its PE's worker); counters are
// plain integers for speed.
type Engine struct {
	Mem   *Memory
	tally [numOpKinds]opTally
}

// NewEngine wraps a memory in a vector engine.
func NewEngine(m *Memory) *Engine { return &Engine{Mem: m} }

// count records one issue of kind k over n elements.
func (e *Engine) count(k opKind, n int) { e.countN(k, 1, n) }

// countN records issues issues of kind k, each over n elements.
func (e *Engine) countN(k opKind, issues uint64, n int) {
	t := &e.tally[k]
	t.elems += issues * uint64(n)
	t.issues += issues
}

// Counters folds the deferred per-op tallies into the full accounting: the
// same totals the ops used to accumulate field by field (loads = source
// operands per element, one store per element, uncounted class separate).
func (e *Engine) Counters() Counters {
	t := &e.tally
	mulVV, mulVS := t[opMulVV].elems, t[opMulVS].elems
	addVV := t[opAddVV].elems
	subVV, subVS := t[opSubVV].elems, t[opSubVS].elems
	negV := t[opNegV].elems
	fmaVSS, fmaVVV := t[opFmaVSS].elems, t[opFmaVVV].elems
	selGt, acc, fill, movRecv := t[opSelGtV].elems, t[opAccV].elems, t[opFill].elems, t[opMovRecv].elems

	var c Counters
	c.FMUL = mulVV + mulVS
	c.FADD = addVV
	c.FSUB = subVV + subVS
	c.FNEG = negV
	c.FMA = fmaVSS + fmaVVV
	c.FMOV = movRecv
	c.SELGT = selGt
	c.ACC = acc
	c.FILL = fill
	// Counted traffic: 2 loads for the two-operand ops (scalar immediates
	// included), 1 for FNEG, 3 for FMA; one store per counted element.
	c.Loads = 2*(mulVV+mulVS+addVV+subVV+subVS) + negV + 3*(fmaVSS+fmaVVV)
	c.Stores = c.FMUL + c.FADD + c.FSUB + c.FNEG + c.FMA + c.FMOV
	c.FabricLoads = movRecv
	// Uncounted class: SELGT 3 loads, ACC 2; one store each, FILL store-only.
	c.UncountedLoads = 3*selGt + 2*acc
	c.UncountedStores = selGt + acc + fill
	for k := range t {
		c.Issues += t[k].issues
	}
	return c
}

// AddCounters folds another engine's totals into c (the per-run reduction).
func (e *Engine) AddCounters(c *Counters) {
	ec := e.Counters()
	c.Add(&ec)
}

// overlap reports whether two views share a word.
func overlap(a, b Desc) bool {
	return a.Base < b.Base+b.Len && b.Base < a.Base+a.Len
}

// FluxConsts are the scalar immediates of the TPFA face kernel (§5.3.3,
// fluxElem below): ρ = AHat·p + CHat linearized density, NegC = −CHat,
// InvMu = 1/μ.
type FluxConsts struct {
	AHat, CHat, NegC, InvMu float32
}

// fluxElem is the 14-op TPFA face kernel on one element, in registers:
//
//	SubVV SubVV MulVS MulVS AddVV FmaVSS MulVV NegV SubVV SelGtV SubVS MulVS MulVV MulVV
//
// Each product is rounded through an explicit float32 conversion, which
// forbids contraction into a fused multiply-add the separate ops would not
// perform. It is the kernel's definition: FluxFace streams every element
// through it, and the bound cell's vector body (flux_amd64.s, on hosts with
// AVX2) performs the same operations in the same order on 8 lanes, leaving
// it the columns shorter than one step and every element elsewhere. The
// temporaries are few because it must stay under the compiler's inlining
// budget (`make bce` checks that it does).
func fluxElem(tr, pk, gk, pl, gl float32, c FluxConsts) float32 {
	rK := float32(pk * c.AHat)              // MulVS
	rL := float32(pl * c.AHat)              // MulVS
	avg := float32(0.5*(rK+rL)) + c.CHat    // AddVV, FmaVSS
	dphi := pl - pk - -float32(avg*(gl-gk)) // SubVV; SubVV, MulVV, NegV; SubVV
	if dphi > 0 {                           // SelGtV: rL becomes the upwinded â·p
		rL = rK
	}
	lam := float32((rL - c.NegC) * c.InvMu) // SubVS, MulVS
	return float32(float32(tr*dphi) * lam)  // MulVV, MulVV
}

// operand returns the column of d, an input of a macro-op writing out, and
// panics like any op on a length mismatch or a view outside the memory — and
// when d shares a word with out. Inputs may overlap each other (the vertical
// faces' Shift(±1) views): an element's inputs are read before it is stored.
// An aliased output would differ from the op-by-op sequence.
func (e *Engine) operand(out, d Desc) []float32 {
	if d.Len != out.Len {
		lenMismatch(out.Len, d.Len)
	}
	v := e.Mem.col(d)
	if overlap(out, d) {
		panic(fmt.Sprintf("dsd: flux kernel output {base %d len %d} overlaps operand {base %d len %d}",
			out.Base, out.Len, d.Base, d.Len))
	}
	return v
}

// countFlux tallies the kernel's 14 issues, for k faces, over n elements.
func (e *Engine) countFlux(k uint64, n int) {
	e.countN(opSubVV, 3*k, n)
	e.countN(opMulVS, 3*k, n)
	e.countN(opMulVV, 3*k, n)
	e.countN(opAddVV, k, n)
	e.countN(opFmaVSS, k, n)
	e.countN(opNegV, k, n)
	e.countN(opSelGtV, k, n)
	e.countN(opSubVS, k, n)
}

// FluxFace is the 14-FLOP TPFA face kernel as one macro-op: it computes
// f = tr · λ_upw · ΔΦ from the own columns (pK, gzK) and the neighbor columns
// (pL, gzL) by streaming every element through fluxElem — 6 loads and 1
// store per element instead of 27 and 14 — and accounts for it as those 14
// issues over Len elements, so counters and every float32 result bit equal
// the op-by-op execution. The intermediates never reach memory: the scratch
// columns a layout keeps for the op-by-op kernel (core's fabric engine keeps
// the paper's) are not written.
func (e *Engine) FluxFace(f, tr, pK, gzK, pL, gzL Desc, c FluxConsts) {
	fo := e.Mem.col(f)
	tv, pk, gk := e.operand(f, tr)[:len(fo)], e.operand(f, pK)[:len(fo)], e.operand(f, gzK)[:len(fo)]
	pl, gl := e.operand(f, pL)[:len(fo)], e.operand(f, gzL)[:len(fo)]
	for i := range fo {
		fo[i] = fluxElem(tv[i], pk[i], gk[i], pl[i], gl[i], c)
	}
	e.countFlux(1, len(fo))
}

// Face is one face of a cell (BindCell): its transmissibility column Tr and
// the neighbor's pressure and g·z columns — in this memory, PL and GzL, or,
// when WireP is not nil, on the wire: the neighbor's own columns WireP and
// WireGz, the 2·Len words the §5.2 exchange sends, which the op-by-op
// spelling MovRecvs into receive buffers before the face reads them. A wire
// face leaves PL and GzL zero; its columns may lie in another PE's memory and
// must not change while the cell runs.
type Face struct {
	Tr, PL, GzL   Desc
	WireP, WireGz []float32
}

// maxCellFaces is the most faces a cell takes: a cell's eight in-plane and
// two vertical faces.
const maxCellFaces = 10

// cellFaces holds each face's (tr, pL, gzL) data pointers, the layout the
// vector body walks: faces 24 bytes apart.
type cellFaces [maxCellFaces][3]*float32

// Cell is one whole application of a PE as one macro-op, bound once by
// BindCell and run by RunCell as many times as the columns' values change.
// It holds the data pointers of every column it reads and writes, the face
// count, the depth and the constants — 304 bytes, kept by value beside the
// rest of a PE's state.
type Cell struct {
	res, pK, gzK *float32
	faces        cellFaces
	nf, n, wires int
	c            FluxConsts
}

// BindCell binds cell to the application
//
//	Fill(res, 0)
//	for each face, in order:
//		MovRecv(PL, WireP); MovRecv(GzL, WireGz)  (wire faces only: PL
//		                                           and GzL receive buffers)
//		FluxFace(f, Tr, pK, gzK, PL, GzL)
//		AccV(res, f)
//
// after checking every operand as the ops would: lengths, bounds, the wire
// columns' Len words each, and res sharing a word with any view or wire
// column (an aliased output would differ from the op-by-op sequence). It
// panics on a bad operand, as the ops do, and writes and counts nothing.
// The views are bound by address: the memory's words must stay where they
// are while the cell is used.
func (e *Engine) BindCell(cell *Cell, res, pK, gzK Desc, faces []Face, c FluxConsts) {
	if len(faces) > maxCellFaces {
		panic(fmt.Sprintf("dsd: BindCell of %d faces, at most %d", len(faces), maxCellFaces))
	}
	ro := e.Mem.col(res)
	data := func(d Desc) *float32 { return unsafe.SliceData(e.operand(res, d)) }
	b := Cell{res: unsafe.SliceData(ro), pK: data(pK), gzK: data(gzK), nf: len(faces), n: len(ro), c: c}
	for k, f := range faces {
		tr := data(f.Tr)
		if f.WireP == nil {
			b.faces[k] = [3]*float32{tr, data(f.PL), data(f.GzL)}
			continue
		}
		if len(f.WireP) != len(ro) || len(f.WireGz) != len(ro) {
			panic(fmt.Sprintf("dsd: BindCell wire of %d + %d words for a %d-element column", len(f.WireP), len(f.WireGz), len(ro)))
		}
		if sharesWord(ro, f.WireP) || sharesWord(ro, f.WireGz) {
			panic(fmt.Sprintf("dsd: cell output {base %d len %d} overlaps a wire column", res.Base, res.Len))
		}
		b.faces[k] = [3]*float32{tr, unsafe.SliceData(f.WireP), unsafe.SliceData(f.WireGz)}
		b.wires++
	}
	*cell = b
}

// sharesWord reports whether two columns share a word.
func sharesWord(a, b []float32) bool {
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return len(a) > 0 && len(b) > 0 && pa < pb+4*uintptr(len(b)) && pb < pa+4*uintptr(len(a))
}

// RunCell runs a cell BindCell bound on e in one pass: per element it reads
// pK and gzK once, sums the fluxes from +0 in a register in face order and
// stores res once, which is tallied as the bound sequence and bit-identical
// to it. Nothing else is written.
func (e *Engine) RunCell(cell *Cell) {
	if !cellVector(cell) {
		cellElems(cell)
	}
	n := cell.n
	e.count(opFill, n)
	e.countN(opMovRecv, 2*uint64(cell.wires), n)
	e.countFlux(uint64(cell.nf), n)
	e.countN(opAccV, uint64(cell.nf), n)
}

// cellElems is RunCell through fluxElem alone: the columns shorter than one
// vector step, and every host without the vector body.
func cellElems(cell *Cell) {
	n := cell.n
	ro := unsafe.Slice(cell.res, n)
	pk, gk := unsafe.Slice(cell.pK, n), unsafe.Slice(cell.gzK, n)
	clear(ro)
	for _, f := range cell.faces[:cell.nf] {
		tv, pl, gl := unsafe.Slice(f[0], n), unsafe.Slice(f[1], n), unsafe.Slice(f[2], n)
		for i := range ro {
			ro[i] += fluxElem(tv[i], pk[i], gk[i], pl[i], gl[i], cell.c)
		}
	}
}

// AccV computes dst += a — the flux-assembly accumulate-store ("assembles
// all the local fluxes", §6). Uncounted class: 2 loads, 1 store.
func (e *Engine) AccV(dst, a Desc) {
	sameLen2(dst, a)
	d := e.Mem.col(dst)
	x := e.Mem.col(a)[:len(d)]
	for i := range d {
		d[i] += x[i]
	}
	e.count(opAccV, len(d))
}

// Fill sets dst = s (residual zeroing; uncounted class: 1 store).
func (e *Engine) Fill(dst Desc, s float32) {
	d := e.Mem.col(dst)
	for i := range d {
		d[i] = s
	}
	e.count(opFill, len(d))
}

// MovRecv stores a received fabric column into local memory (FMOV:
// 1 fabric load + 1 memory store per element, Table 4's 16 per cell).
func (e *Engine) MovRecv(dst Desc, src []float32) {
	if len(src) != dst.Len {
		panic("dsd: MovRecv length mismatch")
	}
	copy(e.Mem.col(dst), src)
	e.count(opMovRecv, dst.Len)
}
