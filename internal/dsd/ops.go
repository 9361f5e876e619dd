package dsd

// Counters accumulates the per-PE instruction, FLOP and traffic statistics
// that Table 4 and the roofline model consume. Counted ops follow the
// paper's accounting (loads = source operands per element, one store per
// element, FMA = 2 FLOPs); SELGT/ACC/FILL are the uncounted class
// (predicated or accumulating moves) reported separately for transparency.
type Counters struct {
	FMUL, FADD, FSUB, FNEG, FMA, FMOV uint64 // counted per element

	SELGT, ACC, FILL, MEMMOV uint64 // uncounted class, per element

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
	c.MEMMOV += o.MEMMOV
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
	opMovV
	opMovRecv
	numOpKinds
)

// opTally is one op kind's deferred accounting: total elements processed and
// total instruction issues.
type opTally struct {
	elems, issues uint64
}

// fastPath gates the stride-1 specialized loops. It exists so the
// bit-identity tests can force the legacy strided loops over the same mesh;
// production code never clears it.
var fastPath = true

// SetFastPath enables or disables the stride-1 specializations, returning
// the previous setting. Both paths compute bit-identical results with
// identical counters — the toggle only exists so tests can assert that. Not
// safe to call while engines are running.
func SetFastPath(on bool) (prev bool) {
	prev = fastPath
	fastPath = on
	return prev
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
	selGt, acc, fill, movV, movRecv :=
		t[opSelGtV].elems, t[opAccV].elems, t[opFill].elems, t[opMovV].elems, t[opMovRecv].elems

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
	c.MEMMOV = movV
	// Counted traffic: 2 loads for the two-operand ops (scalar immediates
	// included), 1 for FNEG, 3 for FMA; one store per counted element.
	c.Loads = 2*(mulVV+mulVS+addVV+subVV+subVS) + negV + 3*(fmaVSS+fmaVVV)
	c.Stores = c.FMUL + c.FADD + c.FSUB + c.FNEG + c.FMA + c.FMOV
	c.FabricLoads = movRecv
	// Uncounted class: SELGT 3 loads, ACC 2, MOV 1; one store each, FILL
	// store-only.
	c.UncountedLoads = 3*selGt + 2*acc + movV
	c.UncountedStores = selGt + acc + fill + movV
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

// inUnit reports whether d is a unit-stride descriptor fully inside a memory
// of n words — the precondition of the reslice fast path. Descriptors that
// fail it (strided, empty, or out of bounds) take the legacy loop, whose
// explicit check panics with the canonical diagnostics.
func inUnit(d Desc, n int) bool {
	return d.Stride == 1 && d.Base >= 0 && d.Base+d.Len <= n
}

// overlap reports whether two unit-stride views share a word.
func overlap(a, b Desc) bool {
	return a.Base < b.Base+b.Len && b.Base < a.Base+a.Len
}

func (e *Engine) unit1(a Desc) bool {
	return fastPath && a.Len > 0 && inUnit(a, len(e.Mem.words))
}

func (e *Engine) unit2(a, b Desc) bool {
	n := len(e.Mem.words)
	return fastPath && a.Len > 0 && inUnit(a, n) && inUnit(b, n)
}

func (e *Engine) unit3(a, b, c Desc) bool {
	return e.unit2(a, b) && inUnit(c, len(e.Mem.words))
}

func (e *Engine) unit4(a, b, c, d Desc) bool {
	return e.unit3(a, b, c) && inUnit(d, len(e.Mem.words))
}

// The stride-1 fast paths below iterate over reslices of the memory words:
// the unit* predicate hoists the bounds check out of the loop, the reslice
// replaces the per-element d.At(i) index multiply, and equal-length slices
// let the compiler eliminate the per-element bounds checks. Operation order
// matches the strided loops exactly, so results are bit-identical; the
// strided loops remain as the general fallback (and as the panic path for
// invalid descriptors, keeping check's diagnostics).

// MulVV computes dst = a·b elementwise (FMUL: 2 loads, 1 store / element).
func (e *Engine) MulVV(dst, a, b Desc) {
	sameLen3(dst, a, b)
	w := e.Mem.words
	if e.unit3(dst, a, b) {
		n := dst.Len
		d, x, y := w[dst.Base:dst.Base+n], w[a.Base:a.Base+n], w[b.Base:b.Base+n]
		for i := range d {
			d[i] = x[i] * y[i]
		}
	} else {
		e.Mem.check(dst, a, b)
		for i := 0; i < dst.Len; i++ {
			w[dst.At(i)] = w[a.At(i)] * w[b.At(i)]
		}
	}
	e.count(opMulVV, dst.Len)
}

// MulVS computes dst = a·s (FMUL with a scalar operand; still 2 loads).
func (e *Engine) MulVS(dst, a Desc, s float32) {
	sameLen2(dst, a)
	w := e.Mem.words
	if e.unit2(dst, a) {
		n := dst.Len
		d, x := w[dst.Base:dst.Base+n], w[a.Base:a.Base+n]
		for i := range d {
			d[i] = x[i] * s
		}
	} else {
		e.Mem.check(dst, a)
		for i := 0; i < dst.Len; i++ {
			w[dst.At(i)] = w[a.At(i)] * s
		}
	}
	e.count(opMulVS, dst.Len)
}

// AddVV computes dst = a + b (FADD: 2 loads, 1 store).
func (e *Engine) AddVV(dst, a, b Desc) {
	sameLen3(dst, a, b)
	w := e.Mem.words
	if e.unit3(dst, a, b) {
		n := dst.Len
		d, x, y := w[dst.Base:dst.Base+n], w[a.Base:a.Base+n], w[b.Base:b.Base+n]
		for i := range d {
			d[i] = x[i] + y[i]
		}
	} else {
		e.Mem.check(dst, a, b)
		for i := 0; i < dst.Len; i++ {
			w[dst.At(i)] = w[a.At(i)] + w[b.At(i)]
		}
	}
	e.count(opAddVV, dst.Len)
}

// SubVV computes dst = a − b (FSUB: 2 loads, 1 store).
func (e *Engine) SubVV(dst, a, b Desc) {
	sameLen3(dst, a, b)
	w := e.Mem.words
	if e.unit3(dst, a, b) {
		n := dst.Len
		d, x, y := w[dst.Base:dst.Base+n], w[a.Base:a.Base+n], w[b.Base:b.Base+n]
		for i := range d {
			d[i] = x[i] - y[i]
		}
	} else {
		e.Mem.check(dst, a, b)
		for i := 0; i < dst.Len; i++ {
			w[dst.At(i)] = w[a.At(i)] - w[b.At(i)]
		}
	}
	e.count(opSubVV, dst.Len)
}

// SubVS computes dst = a − s (FSUB with scalar subtrahend).
func (e *Engine) SubVS(dst, a Desc, s float32) {
	sameLen2(dst, a)
	w := e.Mem.words
	if e.unit2(dst, a) {
		n := dst.Len
		d, x := w[dst.Base:dst.Base+n], w[a.Base:a.Base+n]
		for i := range d {
			d[i] = x[i] - s
		}
	} else {
		e.Mem.check(dst, a)
		for i := 0; i < dst.Len; i++ {
			w[dst.At(i)] = w[a.At(i)] - s
		}
	}
	e.count(opSubVS, dst.Len)
}

// NegV computes dst = −a (FNEG: 1 load, 1 store).
func (e *Engine) NegV(dst, a Desc) {
	sameLen2(dst, a)
	w := e.Mem.words
	if e.unit2(dst, a) {
		n := dst.Len
		d, x := w[dst.Base:dst.Base+n], w[a.Base:a.Base+n]
		for i := range d {
			d[i] = -x[i]
		}
	} else {
		e.Mem.check(dst, a)
		for i := 0; i < dst.Len; i++ {
			w[dst.At(i)] = -w[a.At(i)]
		}
	}
	e.count(opNegV, dst.Len)
}

// FmaVSS computes dst = s1·a + s2 (FMA: 2 FLOPs, 3 loads, 1 store). The
// product is rounded to float32 before the add on every architecture: the
// explicit conversion forbids the compiler from contracting the pair into a
// hardware fused multiply-add (which Go otherwise may on arm64 and
// GOAMD64=v3), so residual bits do not depend on the build target.
func (e *Engine) FmaVSS(dst, a Desc, s1, s2 float32) {
	sameLen2(dst, a)
	w := e.Mem.words
	if e.unit2(dst, a) {
		n := dst.Len
		d, x := w[dst.Base:dst.Base+n], w[a.Base:a.Base+n]
		for i := range d {
			d[i] = float32(s1*x[i]) + s2
		}
	} else {
		e.Mem.check(dst, a)
		for i := 0; i < dst.Len; i++ {
			w[dst.At(i)] = float32(s1*w[a.At(i)]) + s2
		}
	}
	e.count(opFmaVSS, dst.Len)
}

// FmaVVV computes dst = a·b + c (FMA: 2 FLOPs, 3 loads, 1 store), with the
// product rounded separately like FmaVSS.
func (e *Engine) FmaVVV(dst, a, b, c Desc) {
	sameLen4(dst, a, b, c)
	w := e.Mem.words
	if e.unit4(dst, a, b, c) {
		n := dst.Len
		d, x, y, z := w[dst.Base:dst.Base+n], w[a.Base:a.Base+n], w[b.Base:b.Base+n], w[c.Base:c.Base+n]
		for i := range d {
			d[i] = float32(x[i]*y[i]) + z[i]
		}
	} else {
		e.Mem.check(dst, a, b, c)
		for i := 0; i < dst.Len; i++ {
			w[dst.At(i)] = float32(w[a.At(i)]*w[b.At(i)]) + w[c.At(i)]
		}
	}
	e.count(opFmaVVV, dst.Len)
}

// SelGtV computes dst = cond > 0 ? a : b — the upwind selection (Eq. 4) as a
// predicated move. Uncounted class: 3 loads, 1 store tracked separately.
func (e *Engine) SelGtV(dst, cond, a, b Desc) {
	sameLen4(dst, cond, a, b)
	w := e.Mem.words
	if e.unit4(dst, cond, a, b) {
		n := dst.Len
		d, p, x, y := w[dst.Base:dst.Base+n], w[cond.Base:cond.Base+n], w[a.Base:a.Base+n], w[b.Base:b.Base+n]
		for i := range d {
			if p[i] > 0 {
				d[i] = x[i]
			} else {
				d[i] = y[i]
			}
		}
	} else {
		e.Mem.check(dst, cond, a, b)
		for i := 0; i < dst.Len; i++ {
			if w[cond.At(i)] > 0 {
				w[dst.At(i)] = w[a.At(i)]
			} else {
				w[dst.At(i)] = w[b.At(i)]
			}
		}
	}
	e.count(opSelGtV, dst.Len)
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

// fusable is the macro-ops' shared gate: it panics like any other op on
// mismatched lengths or out-of-bounds descriptors, and reports whether the
// fused single pass may run — the fast path on, every view unit-stride, and
// no view in out sharing a word with an input or with another of out. The
// sequence reads every input before it stores, so inputs may overlap each
// other (the vertical faces pass Shift(±1) views of one padded column), but
// an output aliasing anything would see the difference.
func (e *Engine) fusable(out []Desc, in *[5]Desc) bool {
	n, size := out[0].Len, len(e.Mem.words)
	unit := fastPath && n > 0
	for i := range out {
		if out[i].Len != n {
			lenMismatch(n, out[i].Len)
		}
		unit = unit && inUnit(out[i], size)
	}
	for i := range in {
		if in[i].Len != n {
			lenMismatch(n, in[i].Len)
		}
		unit = unit && inUnit(in[i], size)
	}
	if !unit {
		e.Mem.check(out...)
		e.Mem.check(in[:]...)
		return false
	}
	for i := range out {
		for k := range in {
			if overlap(out[i], in[k]) {
				return false
			}
		}
		if i > 0 && overlap(out[i], out[0]) {
			return false
		}
	}
	return true
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
//
// It reports false, having done nothing, when the operands do not qualify
// (see fusable) and the caller then issues the sequence op by op.
func (e *Engine) FluxFace(f, tr, pK, gzK, pL, gzL Desc, c FluxConsts) bool {
	if !e.fusable([]Desc{f}, &[5]Desc{tr, pK, gzK, pL, gzL}) {
		return false
	}
	// Every view is resliced to len(fo), which lets the compiler drop the
	// per-element bounds checks.
	w, n := e.Mem.words, f.Len
	fo := w[f.Base : f.Base+n]
	tv, pk, gk := w[tr.Base:][:len(fo)], w[pK.Base:][:len(fo)], w[gzK.Base:][:len(fo)]
	pl, gl := w[pL.Base:][:len(fo)], w[gzL.Base:][:len(fo)]
	for i := range fo {
		fo[i] = fluxElem(tv[i], pk[i], gk[i], pl[i], gl[i], c)
	}
	e.countFlux(n)
	return true
}

// FluxFaceAcc is FluxFace followed by AccV(res, f) in one pass: each
// element's flux is rounded to float32 exactly as FluxFace would store it and
// added to res straight from the register, so the flux column is neither
// written nor read back. It is tallied as the same 14 issues plus one AccV,
// and res ends bit-identical to the two-op spelling; f is left untouched —
// it is passed so that the op declines and panics on exactly the operands
// the pair it replaces would, and the caller's fallback (FluxFace or the
// op-by-op sequence into f, then AccV) is valid whenever this reports false.
func (e *Engine) FluxFaceAcc(res, f, tr, pK, gzK, pL, gzL Desc, c FluxConsts) bool {
	if !e.fusable([]Desc{res, f}, &[5]Desc{tr, pK, gzK, pL, gzL}) {
		return false
	}
	w, n := e.Mem.words, res.Len
	ro := w[res.Base : res.Base+n]
	tv, pk, gk := w[tr.Base:][:len(ro)], w[pK.Base:][:len(ro)], w[gzK.Base:][:len(ro)]
	pl, gl := w[pL.Base:][:len(ro)], w[gzL.Base:][:len(ro)]
	for i := range ro {
		ro[i] += fluxElem(tv[i], pk[i], gk[i], pl[i], gl[i], c)
	}
	e.countFlux(n)
	e.count(opAccV, n)
	return true
}

// AccV computes dst += a — the flux-assembly accumulate-store ("assembles
// all the local fluxes", §6). Uncounted class: 2 loads, 1 store.
func (e *Engine) AccV(dst, a Desc) {
	sameLen2(dst, a)
	w := e.Mem.words
	if e.unit2(dst, a) {
		d := w[dst.Base : dst.Base+dst.Len]
		x := w[a.Base:][:len(d)]
		for i := range d {
			d[i] += x[i]
		}
	} else {
		e.Mem.check(dst, a)
		for i := 0; i < dst.Len; i++ {
			w[dst.At(i)] += w[a.At(i)]
		}
	}
	e.count(opAccV, dst.Len)
}

// Fill sets dst = s (residual zeroing; uncounted class: 1 store).
func (e *Engine) Fill(dst Desc, s float32) {
	w := e.Mem.words
	if e.unit1(dst) {
		d := w[dst.Base : dst.Base+dst.Len]
		for i := range d {
			d[i] = s
		}
	} else {
		e.Mem.check(dst)
		for i := 0; i < dst.Len; i++ {
			w[dst.At(i)] = s
		}
	}
	e.count(opFill, dst.Len)
}

// MovV copies dst = a within local memory (uncounted buffer move; the
// optimized kernel avoids these — the buffer-reuse ablation counts them).
// The fast path keeps the forward element loop rather than copy(): the two
// views may overlap, and the legacy semantics are the forward-order ones.
func (e *Engine) MovV(dst, a Desc) {
	sameLen2(dst, a)
	w := e.Mem.words
	if e.unit2(dst, a) {
		n := dst.Len
		d, x := w[dst.Base:dst.Base+n], w[a.Base:a.Base+n]
		for i := range d {
			d[i] = x[i]
		}
	} else {
		e.Mem.check(dst, a)
		for i := 0; i < dst.Len; i++ {
			w[dst.At(i)] = w[a.At(i)]
		}
	}
	e.count(opMovV, dst.Len)
}

// MovRecv stores a received fabric column into local memory (FMOV:
// 1 fabric load + 1 memory store per element, Table 4's 16 per cell).
func (e *Engine) MovRecv(dst Desc, src []float32) {
	if len(src) != dst.Len {
		panic("dsd: MovRecv length mismatch")
	}
	w := e.Mem.words
	if e.unit1(dst) {
		copy(w[dst.Base:dst.Base+dst.Len], src)
	} else {
		e.Mem.check(dst)
		for i, v := range src {
			w[dst.At(i)] = v
		}
	}
	e.count(opMovRecv, dst.Len)
}
