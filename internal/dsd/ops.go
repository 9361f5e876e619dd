package dsd

import (
	"fmt"

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

// MemBytes returns the counted local-memory traffic in bytes.
func (c *Counters) MemBytes() uint64 { return 4 * (c.Loads + c.Stores) }

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
// perform. It is the kernel's definition: the macro-ops' vector body
// (flux_amd64.s, on hosts with AVX2) performs the same operations in the same
// order on 8 lanes, and fluxElem takes the tail past its last whole step and
// every element elsewhere. The temporaries are few because it must stay under
// the compiler's inlining budget (`make bce` checks that it does).
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
// (pL, gzL) by streaming every element through fluxElem or its vector body —
// 6 loads and 1 store per element instead of 27 and 14 — and accounts for it
// as those 14 issues over Len elements, so counters and every float32 result
// bit equal the op-by-op execution. The intermediates never reach memory: a
// kernel's scratch buffers stay allocated (footprint and HighWaterWords are
// those of the op-by-op kernel) but are not written.
func (e *Engine) FluxFace(f, tr, pK, gzK, pL, gzL Desc, c FluxConsts) {
	fo := e.Mem.col(f)
	tv, pk, gk := e.operand(f, tr)[:len(fo)], e.operand(f, pK)[:len(fo)], e.operand(f, gzK)[:len(fo)]
	pl, gl := e.operand(f, pL)[:len(fo)], e.operand(f, gzL)[:len(fo)]
	// i is unsigned so that i < len(fo) alone proves every index in range.
	for i := fluxVector(fo, tv, pk, gk, pl, gl, &c); i < uint(len(fo)); i++ {
		fo[i] = fluxElem(tv[i], pk[i], gk[i], pl[i], gl[i], c)
	}
	e.countFlux(1, len(fo))
}

// Face is one face of a FluxCell: its transmissibility column Tr and the
// neighbor's pressure and g·z columns PL and GzL — or, when Wire is not nil,
// the receive buffers the op-by-op spelling MovRecvs the wire into: the
// neighbor's 2·Len words, pressure then g·z, as the §5.2 exchange sends them.
// FluxCell reads the wire and leaves the buffers as they are.
type Face struct {
	Tr, PL, GzL Desc
	Wire        []float32
}

// maxCellFaces is the most faces a FluxCell takes: a cell's eight in-plane
// and two vertical faces.
const maxCellFaces = 10

// cellFaces holds each face's (tr, pL, gzL) columns, the layout the vector
// body walks: the data pointers sit 24 bytes apart, faces 72 bytes apart.
type cellFaces [maxCellFaces][3][]float32

// FluxCell is one whole application of a PE as one macro-op, exactly
//
//	Fill(res, 0)
//	for each face, in order:
//		MovRecv(PL, Wire[:Len]); MovRecv(GzL, Wire[Len:])  (wire faces only)
//		FluxFace(f, Tr, pK, gzK, PL, GzL)
//		AccV(res, f)
//
// in one pass: per element it reads pK and gzK once, sums the fluxes from +0
// in a register in face order and stores res once, which is tallied as that
// sequence and bit-identical to it. Nothing else is written. Every operand is
// checked first, as the ops do: lengths, bounds, the wire's 2·Len words, and
// res sharing a word with any view.
func (e *Engine) FluxCell(res, pK, gzK Desc, faces []Face, c FluxConsts) {
	if len(faces) > maxCellFaces {
		panic(fmt.Sprintf("dsd: FluxCell of %d faces, at most %d", len(faces), maxCellFaces))
	}
	ro := e.Mem.col(res)
	pk, gk := e.operand(res, pK)[:len(ro)], e.operand(res, gzK)[:len(ro)]
	var cols cellFaces
	wires := uint64(0)
	for k, f := range faces {
		cols[k] = [3][]float32{e.operand(res, f.Tr), e.operand(res, f.PL), e.operand(res, f.GzL)}
		if f.Wire != nil {
			if len(f.Wire) != 2*len(ro) {
				panic(fmt.Sprintf("dsd: FluxCell wire of %d words for a %d-element column", len(f.Wire), len(ro)))
			}
			cols[k][1], cols[k][2] = f.Wire[:len(ro)], f.Wire[len(ro):]
			wires++
		}
	}
	done := cellVector(ro, pk, gk, &cols, len(faces), &c)
	clear(ro[done:])
	for _, col := range cols[:len(faces)] {
		tv, pl, gl := col[0][:len(ro)], col[1][:len(ro)], col[2][:len(ro)]
		for i := done; i < uint(len(ro)); i++ {
			ro[i] += fluxElem(tv[i], pk[i], gk[i], pl[i], gl[i], c)
		}
	}
	e.count(opFill, len(ro))
	e.countN(opMovRecv, 2*wires, len(ro))
	e.countFlux(uint64(len(faces)), len(ro))
	e.countN(opAccV, uint64(len(faces)), len(ro))
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
