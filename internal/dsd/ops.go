package dsd

import "fmt"

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

// FabricBytes returns the counted fabric traffic in bytes (receive side).
func (c *Counters) FabricBytes() uint64 { return 4 * c.FabricLoads }

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

// Every op below checks its operands' lengths and bounds (col), then runs one
// element loop; the sources are resliced to the destination's length, so the
// compiler drops the per-element bounds checks.

// MulVV computes dst = a·b elementwise (FMUL: 2 loads, 1 store / element).
func (e *Engine) MulVV(dst, a, b Desc) {
	sameLen3(dst, a, b)
	d := e.Mem.col(dst)
	x, y := e.Mem.col(a)[:len(d)], e.Mem.col(b)[:len(d)]
	for i := range d {
		d[i] = x[i] * y[i]
	}
	e.count(opMulVV, len(d))
}

// MulVS computes dst = a·s (FMUL with a scalar operand; still 2 loads).
func (e *Engine) MulVS(dst, a Desc, s float32) {
	sameLen2(dst, a)
	d := e.Mem.col(dst)
	x := e.Mem.col(a)[:len(d)]
	for i := range d {
		d[i] = x[i] * s
	}
	e.count(opMulVS, len(d))
}

// AddVV computes dst = a + b (FADD: 2 loads, 1 store).
func (e *Engine) AddVV(dst, a, b Desc) {
	sameLen3(dst, a, b)
	d := e.Mem.col(dst)
	x, y := e.Mem.col(a)[:len(d)], e.Mem.col(b)[:len(d)]
	for i := range d {
		d[i] = x[i] + y[i]
	}
	e.count(opAddVV, len(d))
}

// SubVV computes dst = a − b (FSUB: 2 loads, 1 store).
func (e *Engine) SubVV(dst, a, b Desc) {
	sameLen3(dst, a, b)
	d := e.Mem.col(dst)
	x, y := e.Mem.col(a)[:len(d)], e.Mem.col(b)[:len(d)]
	for i := range d {
		d[i] = x[i] - y[i]
	}
	e.count(opSubVV, len(d))
}

// SubVS computes dst = a − s (FSUB with scalar subtrahend).
func (e *Engine) SubVS(dst, a Desc, s float32) {
	sameLen2(dst, a)
	d := e.Mem.col(dst)
	x := e.Mem.col(a)[:len(d)]
	for i := range d {
		d[i] = x[i] - s
	}
	e.count(opSubVS, len(d))
}

// NegV computes dst = −a (FNEG: 1 load, 1 store).
func (e *Engine) NegV(dst, a Desc) {
	sameLen2(dst, a)
	d := e.Mem.col(dst)
	x := e.Mem.col(a)[:len(d)]
	for i := range d {
		d[i] = -x[i]
	}
	e.count(opNegV, len(d))
}

// FmaVSS computes dst = s1·a + s2 (FMA: 2 FLOPs, 3 loads, 1 store). The
// product is rounded to float32 before the add on every architecture: the
// explicit conversion forbids the compiler from contracting the pair into a
// hardware fused multiply-add (which Go otherwise may on arm64 and
// GOAMD64=v3), so residual bits do not depend on the build target.
func (e *Engine) FmaVSS(dst, a Desc, s1, s2 float32) {
	sameLen2(dst, a)
	d := e.Mem.col(dst)
	x := e.Mem.col(a)[:len(d)]
	for i := range d {
		d[i] = float32(s1*x[i]) + s2
	}
	e.count(opFmaVSS, len(d))
}

// FmaVVV computes dst = a·b + c (FMA: 2 FLOPs, 3 loads, 1 store), with the
// product rounded separately like FmaVSS.
func (e *Engine) FmaVVV(dst, a, b, c Desc) {
	sameLen4(dst, a, b, c)
	d := e.Mem.col(dst)
	x, y, z := e.Mem.col(a)[:len(d)], e.Mem.col(b)[:len(d)], e.Mem.col(c)[:len(d)]
	for i := range d {
		d[i] = float32(x[i]*y[i]) + z[i]
	}
	e.count(opFmaVVV, len(d))
}

// SelGtV computes dst = cond > 0 ? a : b — the upwind selection (Eq. 4) as a
// predicated move. Uncounted class: 3 loads, 1 store tracked separately.
func (e *Engine) SelGtV(dst, cond, a, b Desc) {
	sameLen4(dst, cond, a, b)
	d := e.Mem.col(dst)
	p, x, y := e.Mem.col(cond)[:len(d)], e.Mem.col(a)[:len(d)], e.Mem.col(b)[:len(d)]
	for i := range d {
		if p[i] > 0 {
			d[i] = x[i]
		} else {
			d[i] = y[i]
		}
	}
	e.count(opSelGtV, len(d))
}

// FluxConsts are the scalar immediates of the TPFA face kernel (DESIGN.md
// §4): ρ = AHat·p + CHat linearized density, NegC = −CHat, InvMu = 1/μ.
type FluxConsts struct {
	AHat, CHat, NegC, InvMu float32
}

// fluxElem is the 14-op TPFA face kernel on one element, in registers:
//
//	SubVV SubVV MulVS MulVS AddVV FmaVSS MulVV NegV SubVV SelGtV SubVS MulVS MulVV MulVV
//
// Each product is rounded through an explicit float32 conversion, which
// forbids contraction into a fused multiply-add the separate ops would not
// perform. It is the one spelling both macro-ops below stream their columns
// through; the temporaries are few because it must stay under the compiler's
// inlining budget (`make bce` checks that it does).
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

// faceCols is the macro-ops' operand check: it stores the column of each of
// ds (the first outs are outputs) in cols and panics like any op on a length
// mismatch or a view outside the memory — and when an output shares a word
// with any other view. The single pass reads an element's inputs before it
// stores, so inputs may overlap (the vertical faces' Shift(±1) views), but an
// aliased output would differ from the op-by-op sequence: a construction bug.
func (e *Engine) faceCols(cols *[7][]float32, outs int, ds ...Desc) {
	n := ds[0].Len
	for _, d := range ds {
		if d.Len != n {
			lenMismatch(n, d.Len)
		}
	}
	if w := e.Mem.words; n != 0 { // empty columns stay nil, wherever they point
		for i, d := range ds {
			if !e.Mem.holds(d) {
				badDesc(d, len(w))
			}
			cols[i] = w[d.Base : d.Base+n]
		}
	}
	for i, o := range ds[:outs] {
		for j, d := range ds {
			if j != i && overlap(o, d) {
				panic(fmt.Sprintf("dsd: flux kernel output {base %d len %d} overlaps operand {base %d len %d}",
					o.Base, o.Len, d.Base, d.Len))
			}
		}
	}
}

// countFlux tallies the kernel's 14 issues over n elements.
func (e *Engine) countFlux(n int) {
	e.countN(opSubVV, 3, n)
	e.countN(opMulVS, 3, n)
	e.countN(opMulVV, 3, n)
	e.countN(opAddVV, 1, n)
	e.countN(opFmaVSS, 1, n)
	e.countN(opNegV, 1, n)
	e.countN(opSelGtV, 1, n)
	e.countN(opSubVS, 1, n)
}

// FluxFace is the 14-FLOP TPFA face kernel as one macro-op: it computes
// f = tr · λ_upw · ΔΦ from the own columns (pK, gzK) and the neighbor columns
// (pL, gzL) by streaming every element through fluxElem — 6 loads and 1 store
// per element instead of 27 and 14 — and accounts for it as those 14 issues
// over Len elements, so counters and every float32 result bit equal the
// op-by-op execution. The intermediates never reach memory: a kernel's
// scratch buffers stay allocated (footprint and HighWaterWords are those of
// the op-by-op kernel) but are not written.
func (e *Engine) FluxFace(f, tr, pK, gzK, pL, gzL Desc, c FluxConsts) {
	var col [7][]float32
	e.faceCols(&col, 1, f, tr, pK, gzK, pL, gzL)
	fo := col[0]
	tv, pk, gk := col[1][:len(fo)], col[2][:len(fo)], col[3][:len(fo)]
	pl, gl := col[4][:len(fo)], col[5][:len(fo)]
	for i := range fo {
		fo[i] = fluxElem(tv[i], pk[i], gk[i], pl[i], gl[i], c)
	}
	e.countFlux(len(fo))
}

// FluxFaceAcc is FluxFace followed by AccV(res, f) in one pass: each
// element's flux is rounded to float32 exactly as FluxFace would store it and
// added to res straight from the register, so the flux column is neither
// written nor read back. It is tallied as the same 14 issues plus one AccV,
// and res ends bit-identical to the two-op spelling. f is left untouched; it
// is passed so that the op is checked against every operand of the pair it
// replaces (and res may not alias it).
func (e *Engine) FluxFaceAcc(res, f, tr, pK, gzK, pL, gzL Desc, c FluxConsts) {
	var col [7][]float32
	e.faceCols(&col, 2, res, f, tr, pK, gzK, pL, gzL)
	ro := col[0]
	tv, pk, gk := col[2][:len(ro)], col[3][:len(ro)], col[4][:len(ro)]
	pl, gl := col[5][:len(ro)], col[6][:len(ro)]
	for i := range ro {
		ro[i] += fluxElem(tv[i], pk[i], gk[i], pl[i], gl[i], c)
	}
	e.countFlux(len(ro))
	e.count(opAccV, len(ro))
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
