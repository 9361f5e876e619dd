package dsd

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

var testConsts = FluxConsts{AHat: 7e-6, CHat: 595, NegC: -595, InvMu: 16666}

// fluxSequence is the op-by-op spelling of the face kernel FluxFace fuses
// (the buffer-reuse discipline of core's kernel): the oracle the macro-op is
// held to, bit for bit and counter for counter.
func fluxSequence(e *Engine, f, tr, pK, gzK, pL, gzL Desc, c FluxConsts, s [5]Desc) {
	e.SubVV(s[0], pL, pK)
	e.SubVV(s[1], gzL, gzK)
	e.MulVS(s[2], pK, c.AHat)
	e.MulVS(s[3], pL, c.AHat)
	e.AddVV(s[4], s[2], s[3])
	e.FmaVSS(s[4], s[4], 0.5, c.CHat)
	e.MulVV(s[1], s[4], s[1])
	e.NegV(s[1], s[1])
	e.SubVV(s[0], s[0], s[1])
	e.SelGtV(s[3], s[0], s[2], s[3])
	e.SubVS(s[3], s[3], c.NegC)
	e.MulVS(s[3], s[3], c.InvMu)
	e.MulVV(s[0], tr, s[0])
	e.MulVV(f, s[0], s[3])
}

// The single-instruction ops of the vector ISA that fluxSequence spells the
// kernel in; the engines run only the macro-ops, so these live with their
// oracle. Every op checks its operands' lengths and bounds (col), then runs
// one element loop; the sources are resliced to the destination's length, so
// the compiler drops the per-element bounds checks.

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

// sameLen3/4 are sameLen2 for the three- and four-operand ops above.
func sameLen3(a, b, c Desc) {
	if b.Len != a.Len {
		lenMismatch(a.Len, b.Len)
	}
	if c.Len != a.Len {
		lenMismatch(a.Len, c.Len)
	}
}

func sameLen4(a, b, c, d Desc) {
	sameLen3(a, b, c)
	if d.Len != a.Len {
		lenMismatch(a.Len, d.Len)
	}
}

// faceColumns is one PE-like layout: padded own columns (so the vertical
// faces' Shift(±1) views stay inside the allocation), neighbor columns,
// transmissibility, flux and scratch.
type faceColumns struct {
	e           *Engine
	pPad, gzPad Desc
	p, gz       Desc
	nbrP, nbrGz Desc
	tr, f, res  Desc
	scratch     [5]Desc
}

func newFaceColumns(t testing.TB, n int) *faceColumns {
	t.Helper()
	m, err := NewMemory(13*n + 4)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(k int) Desc {
		d, err := m.Alloc(k)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	c := &faceColumns{e: NewEngine(m)}
	c.pPad, c.gzPad = alloc(n+2), alloc(n+2)
	c.p, c.gz = c.pPad.MustSlice(1, n), c.gzPad.MustSlice(1, n)
	c.nbrP, c.nbrGz, c.tr, c.f, c.res = alloc(n), alloc(n), alloc(n), alloc(n), alloc(n)
	for i := range c.scratch {
		c.scratch[i] = alloc(n)
	}
	return c
}

// neighbor returns the (pL, gzL) views of a face kind: the received columns
// for an in-plane face, the overlapping shifted own columns for a vertical one.
func (c *faceColumns) neighbor(kind int) (pL, gzL Desc) {
	switch kind {
	case 1:
		return c.p.Shift(1), c.gz.Shift(1)
	case 2:
		return c.p.Shift(-1), c.gz.Shift(-1)
	}
	return c.nbrP, c.nbrGz
}

var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
	math.MaxFloat32, -math.MaxFloat32,
}

// drawColumn fills dst with reservoir-scaled values around centre, salted
// with the special values.
func drawColumn(rng *rand.Rand, dst []float32, centre, spread float32) {
	for i := range dst {
		if rng.IntN(8) == 0 {
			dst[i] = specials[rng.IntN(len(specials))]
			continue
		}
		dst[i] = centre + spread*(2*rng.Float32()-1)
	}
}

// sameBits compares two results bit for bit. Two NaNs count as equal: which
// operand's sign and payload a commutative op propagates depends on the order
// the compiler hands the operands to the instruction, and that order may
// differ between the fused loop and the per-op loops.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func TestFluxFaceMatchesOpSequence(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 0xf1a7))
	for trial := 0; trial < 400; trial++ {
		n := []int{1, 2, 7, 64, 246}[rng.IntN(5)]
		kind := rng.IntN(3)
		fused, seq := newFaceColumns(t, n), newFaceColumns(t, n)

		// Identical inputs in both memories. Every fourth cell is an exact
		// tie (neighbor equals own column), where ΔΦ == 0 and SELGT must
		// take the else branch.
		w := fused.e.Mem.words
		drawColumn(rng, w[fused.pPad.Base:fused.pPad.Base+n+2], 2e7, 1e6)
		drawColumn(rng, w[fused.gzPad.Base:fused.gzPad.Base+n+2], -15000, 500)
		drawColumn(rng, w[fused.nbrP.Base:fused.nbrP.Base+n], 2e7, 1e6)
		drawColumn(rng, w[fused.nbrGz.Base:fused.nbrGz.Base+n], -15000, 500)
		drawColumn(rng, w[fused.tr.Base:fused.tr.Base+n], 1e-12, 1e-12)
		pL, gzL := fused.neighbor(kind)
		for i := 0; i < n; i += 4 {
			w[pL.At(i)] = w[fused.p.At(i)]
			w[gzL.At(i)] = w[fused.gz.At(i)]
		}
		for i := range w[fused.f.Base:] { // stale flux and scratch content
			w[fused.f.Base+i] = 99
		}
		copy(seq.e.Mem.words, w)
		before := append([]float32(nil), w...)

		fused.e.FluxFace(fused.f, fused.tr, fused.p, fused.gz, pL, gzL, testConsts)
		pL, gzL = seq.neighbor(kind)
		fluxSequence(seq.e, seq.f, seq.tr, seq.p, seq.gz, pL, gzL, testConsts, seq.scratch)

		for i := 0; i < n; i++ {
			got, want := fused.e.Mem.Load(fused.f, i), seq.e.Mem.Load(seq.f, i)
			if !sameBits(got, want) {
				t.Fatalf("trial %d (n=%d kind=%d): f[%d] = %g (%#08x), sequence %g (%#08x)", trial, n, kind,
					i, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
		// The macro-op stores f and nothing else — scratch stays untouched.
		for i, v := range fused.e.Mem.words {
			inF := i >= fused.f.Base && i < fused.f.Base+n
			if !inF && !sameBits(v, before[i]) {
				t.Fatalf("trial %d: FluxFace wrote word %d outside f", trial, i)
			}
		}
		if fc, sc := fused.e.Counters(), seq.e.Counters(); fc != sc {
			t.Fatalf("trial %d: counters diverged:\nfused    %+v\nsequence %+v", trial, fc, sc)
		}
	}
}

// TestFluxVectorMatchesFluxElem holds the face kernel's vector body to
// fluxElem lane by lane, on columns where each of the six inputs is, in turn,
// every special value (±0, subnormals, ±Inf, NaN, ±MaxFloat32) against
// reservoir-scaled neighbors, on the exact zeros the kernel branches on
// (Υ = ±0, ΔΦ = +0 and ΔΦ = −0), and on random columns salted with specials.
// The cell body is held to fluxElem's per-face fluxes summed from +0 in face
// order, at every face count 0–10.
func TestFluxVectorMatchesFluxElem(t *testing.T) {
	if !vectorFlux {
		t.Skip("no vector body for the face kernel on this host")
	}
	const tr, pk, gk, pl, gl = 0, 1, 2, 3, 4
	var lanes [][5]float32
	typical := [5]float32{1e-12, 2e7, -15000, 2.01e7, -15010}
	for in := range typical {
		for _, v := range specials {
			l := typical
			l[in] = v
			lanes = append(lanes, l)
		}
	}
	negZero := float32(math.Copysign(0, -1))
	lanes = append(lanes,
		[5]float32{0, 2e7, -15000, 2.01e7, -15010},       // Υ = +0
		[5]float32{negZero, 2e7, -15000, 2.01e7, -15010}, // Υ = −0
		[5]float32{1e-12, 2e7, -15000, 2e7, -15000},      // ΔΦ = +0
		[5]float32{1e-12, 0, 0, negZero, negZero},        // ΔΦ = −0
		[5]float32{negZero, 0, 0, negZero, negZero},      // ΔΦ = −0, Υ = −0
		[5]float32{1e-12, 1e-40, 1e-40, -1e-40, -1e-40},  // subnormal pressures
		[5]float32{1e-40, 2e7, -15000, 2.01e7, -15010},   // subnormal Υ
	)
	lanes = append(lanes, signedZeroTie(t))
	rng := rand.New(rand.NewPCG(31, 0x5eed))
	for len(lanes)%8 != 5 || len(lanes) < 4096 { // whole steps and a 5-lane tail
		var l [5]float32
		for in, centre := range typical {
			col := l[in : in+1]
			drawColumn(rng, col, centre, centre/20)
		}
		lanes = append(lanes, l)
	}
	n := len(lanes)
	cols := make([][]float32, 5)
	for in := range cols {
		cols[in] = make([]float32, n)
		for i, l := range lanes {
			cols[in][i] = l[in]
		}
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i%7) - 3
	}
	before := append([]float32(nil), out...)
	c := testConsts
	done := fluxVector(out, cols[tr], cols[pk], cols[gk], cols[pl], cols[gl], &c)
	if want := uint(n &^ 7); done != want {
		t.Fatalf("vector body ran %d of %d elements, want %d", done, n, want)
	}
	for i := range out {
		want := before[i]
		if i < int(done) {
			want = fluxElem(cols[tr][i], cols[pk][i], cols[gk][i], cols[pl][i], cols[gl][i], testConsts)
		}
		if !sameBits(out[i], want) {
			t.Fatalf("lane %d inputs %v: vector %g (%#08x), fluxElem %g (%#08x)", i, lanes[i],
				out[i], math.Float32bits(out[i]), want, math.Float32bits(want))
		}
	}

	// The cell body: face k reads the neighbor lanes rotated by k·(n/10), so
	// every special value meets every face position and the others' sums.
	for nf := 0; nf <= maxCellFaces; nf++ {
		var faces cellFaces
		for k := range faces[:nf] {
			rot := func(col []float32) []float32 {
				r := k * (n / maxCellFaces)
				return append(append([]float32(nil), col[r:]...), col[:r]...)
			}
			faces[k] = [3][]float32{rot(cols[tr]), rot(cols[pl]), rot(cols[gl])}
		}
		copy(out, before)
		done := cellVector(out, cols[pk], cols[gk], &faces, nf, &c)
		if want := uint(n &^ 7); done != want {
			t.Fatalf("%d faces: cell body ran %d of %d elements, want %d", nf, done, n, want)
		}
		for i := range out {
			want := before[i]
			if i < int(done) {
				want = 0
				for _, f := range faces[:nf] {
					want += fluxElem(f[0][i], cols[pk][i], cols[gk][i], f[1][i], f[2][i], testConsts)
				}
			}
			if !sameBits(out[i], want) {
				t.Fatalf("%d faces, lane %d: cell body %g (%#08x), sum of fluxElem %g (%#08x)", nf, i,
					out[i], math.Float32bits(out[i]), want, math.Float32bits(want))
			}
		}
	}
}

// signedZeroTie returns a lane whose ΔΦ is exactly +0 although its two
// upwind candidates have mobilities of opposite sign (pK = −10⁸ makes
// â·pK + Ĉ negative, pL = 0 keeps it positive), so only the flux's zero sign
// tells which one the kernel chose: a compare that took ΔΦ = 0 as
// "greater" would give −0 where fluxElem gives +0.
func signedZeroTie(t *testing.T) [5]float32 {
	t.Helper()
	const pk, pl = -1e8, 0
	c := testConsts
	rK, rL := float32(pk*c.AHat), float32(pl*c.AHat)
	avg := float32(0.5*(rK+rL)) + c.CHat
	d := float32(-(pl - pk) / avg)
	for i := 0; i < 64 && float32(avg*d) != -(pl-pk); i++ {
		if float32(avg*d) < -(pl - pk) {
			d = math.Nextafter32(d, 0)
		} else {
			d = math.Nextafter32(d, float32(math.Inf(-1)))
		}
	}
	l := [5]float32{1e-12, pk, 0, pl, d} // tr, pK, gzK, pL, gzL
	if f := fluxElem(l[0], l[1], l[2], l[3], l[4], c); f != 0 || math.Signbit(float64(f)) ||
		float32((rK-c.NegC)*c.InvMu) >= 0 {
		t.Fatalf("no signed-zero tie: lane %v gives flux %g", l, f)
	}
	return l
}

// TestFluxFaceAntisymmetric: swapping the own and the neighbor columns
// negates the flux exactly wherever ΔΦ ≠ 0 — every intermediate of the
// reversed evaluation is the negation or the swap of the forward one, and
// round-to-nearest is symmetric in sign. On an exact tie (ΔΦ = 0, every
// fourth cell) both directions give a zero flux.
func TestFluxFaceAntisymmetric(t *testing.T) {
	const n = 246
	rng := rand.New(rand.NewPCG(3, 0xa5e))
	for trial := 0; trial < 20; trial++ {
		c := newFaceColumns(t, n)
		w := c.e.Mem.words
		for i := 0; i < n; i++ {
			w[c.p.At(i)], w[c.nbrP.At(i)] = 1.4e7+2e6*rng.Float32(), 1.4e7+2e6*rng.Float32()
			w[c.gz.At(i)], w[c.nbrGz.At(i)] = -15000+500*rng.Float32(), -15000+500*rng.Float32()
			w[c.tr.At(i)] = 1e-12 * (1 + rng.Float32())
			if i%4 == 0 {
				w[c.nbrP.At(i)], w[c.nbrGz.At(i)] = w[c.p.At(i)], w[c.gz.At(i)]
			}
		}
		c.e.FluxFace(c.f, c.tr, c.p, c.gz, c.nbrP, c.nbrGz, testConsts)
		c.e.FluxFace(c.res, c.tr, c.nbrP, c.nbrGz, c.p, c.gz, testConsts)
		for i := 0; i < n; i++ {
			fKL, fLK := c.e.Mem.Load(c.f, i), c.e.Mem.Load(c.res, i)
			tie := i%4 == 0
			if tie != (fKL == 0) || tie != (fLK == 0) {
				t.Fatalf("trial %d cell %d: f_KL = %g, f_LK = %g; want both zero exactly on a tie (tie=%v)", trial, i, fKL, fLK, tie)
			}
			if !tie && math.Float32bits(fLK) != math.Float32bits(-fKL) {
				t.Fatalf("trial %d cell %d: f_LK = %g (%#08x), want −f_KL = %g (%#08x)", trial, i,
					fLK, math.Float32bits(fLK), -fKL, math.Float32bits(-fKL))
			}
		}
	}
}

// TestFluxFaceRejectsAliasedOutputs: an output sharing a word with an
// operand — FluxFace's flux column, or FluxCell's residual with any view it
// reads or a receive buffer the op-by-op spelling writes — is a
// kernel-construction bug: the macro-op panics with a dsd: message before it
// writes or counts anything. Disjoint operands, and inputs overlapping each
// other (the vertical faces), run.
func TestFluxFaceRejectsAliasedOutputs(t *testing.T) {
	const m = 8
	c := newFaceColumns(t, 2*m)
	cut := func(d Desc) Desc { return d.MustSlice(0, m) }
	f, res, tr, p, gz, nbrP, nbrGz := cut(c.f), cut(c.res), cut(c.tr), cut(c.p), cut(c.gz), cut(c.nbrP), cut(c.nbrGz)
	wire := make([]float32, 2*m)
	cell := func(res Desc, face Face) func() {
		return func() { c.e.FluxCell(res, p, gz, []Face{{Tr: tr, PL: p.Shift(1), GzL: gz.Shift(1)}, face}, testConsts) }
	}
	for _, tc := range []struct {
		name string
		ok   bool
		run  func()
	}{
		{"disjoint operands", true, func() { c.e.FluxFace(f, tr, p, gz, nbrP, nbrGz, testConsts) }},
		{"inputs overlap", true, func() { c.e.FluxFace(f, tr, p, gz, p.Shift(1), gz.Shift(1), testConsts) }},
		{"output overlaps input", false, func() { c.e.FluxFace(p.Shift(1), tr, p, gz, nbrP, nbrGz, testConsts) }},
		{"flux overlaps input", false, func() { c.e.FluxFace(gz.Shift(m/2), tr, p, gz, nbrP, nbrGz, testConsts) }},
		{"cell disjoint operands", true, cell(res, Face{Tr: tr, PL: nbrP, GzL: nbrGz, Wire: wire})},
		{"residual overlaps input", false, cell(p.Shift(m/2), Face{Tr: tr, PL: nbrP, GzL: nbrGz})},
		{"residual overlaps transmissibility", false, cell(tr.Shift(m/2), Face{Tr: tr, PL: nbrP, GzL: nbrGz})},
		{"residual overlaps receive buffer", false, cell(nbrGz, Face{Tr: tr, PL: nbrP, GzL: nbrGz, Wire: wire})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.ok {
				rejects(t, c.e, tc.run, "overlaps")
			} else if msg := panicMessage(tc.run); msg != "" {
				t.Fatalf("valid operands panicked: %s", msg)
			}
		})
	}
}

// rejects asserts that run panics with a dsd: message containing want and
// leaves e's memory and counters as they were.
func rejects(t *testing.T, e *Engine, run func(), want string) {
	t.Helper()
	before, counters := append([]float32(nil), e.Mem.words...), e.Counters()
	if msg := panicMessage(run); !strings.HasPrefix(msg, "dsd: ") || !strings.Contains(msg, want) {
		t.Fatalf("panic = %q, want a dsd: panic containing %q", msg, want)
	}
	if e.Counters() != counters {
		t.Fatal("a rejected macro-op bumped the counters")
	}
	for k, v := range e.Mem.words {
		if !sameBits(v, before[k]) {
			t.Fatalf("a rejected macro-op wrote word %d", k)
		}
	}
}

// panicMessage runs fn and returns what it panicked with ("" if it returned).
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

func TestFluxFacePanicsLikeTheOps(t *testing.T) {
	c := newFaceColumns(t, 8)
	oob := Desc{Base: c.e.Mem.capacity - 4, Len: 8}
	for _, tc := range []struct {
		name, want string
		pL         Desc
	}{
		{"length mismatch", "dsd: descriptor length mismatch", c.nbrP.MustSlice(0, 4)},
		{"out of bounds", "out of memory bounds", oob},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rejects(t, c.e, func() { c.e.FluxFace(c.f, c.tr, c.p, c.gz, tc.pL, c.nbrGz, testConsts) }, tc.want)
		})
	}
}

func TestFluxFaceDoesNotAllocate(t *testing.T) {
	c := newFaceColumns(t, 246)
	allocs := testing.AllocsPerRun(100, func() {
		c.e.FluxFace(c.f, c.tr, c.p, c.gz, c.nbrP, c.nbrGz, testConsts)
	})
	if allocs != 0 {
		t.Errorf("FluxFace allocates %.0f times per call, want 0", allocs)
	}
}

// cellColumns is one PE's layout for FluxCell: padded own columns (so the
// vertical faces' Shift(±1) views stay inside the memory), the residual, a
// flux column for the op-by-op oracle, ten transmissibility columns and
// eight pairs of receive buffers. It is laid out by hand, so n may be 0.
type cellColumns struct {
	e           *Engine
	pPad, gzPad Desc
	p, gz       Desc
	res, f      Desc
	tr          [maxCellFaces]Desc
	nbrP, nbrGz [8]Desc
}

func newCellColumns(t testing.TB, n int) *cellColumns {
	t.Helper()
	m, err := NewMemory(30*n + 4)
	if err != nil {
		t.Fatal(err)
	}
	c := &cellColumns{e: NewEngine(m)}
	next := 0
	col := func(k int) Desc {
		d := Desc{Base: next, Len: k}
		next += k
		return d
	}
	c.pPad, c.gzPad = col(n+2), col(n+2)
	c.p, c.gz = c.pPad.MustSlice(1, n), c.gzPad.MustSlice(1, n)
	c.res, c.f = col(n), col(n)
	for k := range c.tr {
		c.tr[k] = col(n)
	}
	for k := range c.nbrP {
		c.nbrP[k], c.nbrGz[k] = col(n), col(n)
	}
	return c
}

// Face slots of a cell: 0–7 are the in-plane faces with their receive
// buffers, then the two vertical faces.
const (
	slotDown = 8 + iota
	slotUp
)

// face returns the Face of slot s with transmissibility column k; an in-plane
// face takes wire when it is non-nil, else it reads its receive buffers.
func (c *cellColumns) face(s, k int, wire []float32) Face {
	f := Face{Tr: c.tr[k]}
	switch s {
	case slotDown:
		f.PL, f.GzL = c.p.Shift(-1), c.gz.Shift(-1)
	case slotUp:
		f.PL, f.GzL = c.p.Shift(1), c.gz.Shift(1)
	default:
		f.PL, f.GzL, f.Wire = c.nbrP[s], c.nbrGz[s], wire
	}
	return f
}

// cellSequence is FluxCell's op-by-op spelling, the oracle FuzzFluxCell
// holds it to: zero the residual, then per face receive the wire into the
// receive buffers, evaluate the face into the flux column and add it.
func cellSequence(c *cellColumns, faces []Face) {
	c.e.Fill(c.res, 0)
	for _, f := range faces {
		if f.Wire != nil {
			c.e.MovRecv(f.PL, f.Wire[:c.res.Len])
			c.e.MovRecv(f.GzL, f.Wire[c.res.Len:])
		}
		c.e.FluxFace(c.f, f.Tr, c.p, c.gz, f.PL, f.GzL, testConsts)
		c.e.AccV(c.res, c.f)
	}
}

// Face sets FuzzFluxCell draws: all ten faces in the engines' assembly order,
// the six without diagonals, or 0–10 faces of random slots.
const (
	setAll = iota
	setNoDiagonals
	setRandom
	numCellSets
)

// drawFaces returns a face list of the given set over c, each in-plane face
// on a fresh random wire or (a boundary PE's mirror) its receive buffers.
func drawFaces(rng *rand.Rand, c *cellColumns, set, n int) []Face {
	var slots []int
	switch set {
	case setAll:
		slots = []int{0, 1, 2, 3, 4, 5, 6, 7, slotDown, slotUp}
	case setNoDiagonals:
		slots = []int{0, 1, 2, 3, slotDown, slotUp}
	default:
		// A receive buffer belongs to one face, but the vertical views may
		// repeat: they are only read.
		inPlane := rng.Perm(8)
		for range rng.IntN(maxCellFaces + 1) {
			if s := rng.IntN(10); s < 8 && len(inPlane) > 0 {
				slots, inPlane = append(slots, inPlane[0]), inPlane[1:]
			} else {
				slots = append(slots, slotDown+rng.IntN(2))
			}
		}
	}
	faces := make([]Face, len(slots))
	for k, s := range slots {
		var wire []float32
		if rng.IntN(4) != 0 {
			wire = make([]float32, 2*n)
			drawColumn(rng, wire[:n], 2e7, 1e6)
			drawColumn(rng, wire[n:], -15000, 500)
		}
		faces[k] = c.face(s, rng.IntN(maxCellFaces), wire)
	}
	return faces
}

// FuzzFluxCell holds the whole-cell macro-op to its op-by-op spelling
// (cellSequence: Fill, two MovRecvs per wire face into real receive buffers,
// FluxFace, AccV) on columns 0–40 deep — every tail past the vector body's
// 8-lane steps, or whole columns through fluxElem alone — with 0–10 faces, wire and memory faces mixed beside the
// vertical Shift(±1) views, salted with NaN, ±0, ±Inf and subnormal lanes
// and zero transmissibilities (fluxes of either zero sign): the residual
// bits and the counters are the oracle's, and FluxCell writes nothing but
// the residual.
func FuzzFluxCell(f *testing.F) {
	for _, nz := range []uint8{0, 1, 4, 7, 8, 13, 16, 23, 40} {
		f.Add(uint64(nz)*0x9e37+1, nz, uint8(setAll), false)
		f.Add(uint64(nz)*0x9e37+2, nz, uint8(setRandom), false)
	}
	f.Add(uint64(3), uint8(4), uint8(setNoDiagonals), false)
	f.Add(uint64(4), uint8(13), uint8(setNoDiagonals), false)
	f.Add(uint64(5), uint8(31), uint8(setNoDiagonals), false)
	f.Add(uint64(6), uint8(40), uint8(setAll), true)
	f.Add(uint64(7), uint8(24), uint8(setRandom), true)
	f.Fuzz(func(t *testing.T, seed uint64, depth, set uint8, goOnly bool) {
		// goOnly runs every element through fluxElem, as hosts without the
		// vector body do.
		defer func(v bool) { vectorFlux = v }(vectorFlux)
		vectorFlux = vectorFlux && !goOnly
		n := int(depth) % 41
		rng := rand.New(rand.NewPCG(seed, 0xce11))
		fused, oracle := newCellColumns(t, n), newCellColumns(t, n)
		w := fused.e.Mem.words
		drawColumn(rng, w[fused.pPad.Base:fused.pPad.Base+n+2], 2e7, 1e6)
		drawColumn(rng, w[fused.gzPad.Base:fused.gzPad.Base+n+2], -15000, 500)
		drawColumn(rng, w[fused.res.Base:fused.res.Base+2*n], 0, 1e-3) // stale residual and flux
		for k := range fused.tr {
			drawColumn(rng, w[fused.tr[k].Base:fused.tr[k].Base+n], 1e-12, 1e-12)
			for i := 0; i < n; i += 3 {
				w[fused.tr[k].Base+i] = specials[rng.IntN(2)] // Υ = ±0: a boundary face
			}
		}
		for k := range fused.nbrP {
			drawColumn(rng, w[fused.nbrP[k].Base:fused.nbrP[k].Base+n], 2e7, 1e6)
			drawColumn(rng, w[fused.nbrGz[k].Base:fused.nbrGz[k].Base+n], -15000, 500)
		}
		copy(oracle.e.Mem.words, w)
		before := append([]float32(nil), w...)

		faces := drawFaces(rng, fused, int(set)%numCellSets, n)
		fused.e.FluxCell(fused.res, fused.p, fused.gz, faces, testConsts)
		// The same faces over the oracle's memory: the layouts are identical.
		cellSequence(oracle, faces)

		for i, v := range w {
			want := before[i]
			if i >= fused.res.Base && i < fused.res.Base+n {
				want = oracle.e.Mem.words[i]
			}
			if !sameBits(v, want) {
				t.Fatalf("n=%d, %d faces: word %d = %g (%#08x), want %g (%#08x)", n, len(faces), i,
					v, math.Float32bits(v), want, math.Float32bits(want))
			}
		}
		if fc, oc := fused.e.Counters(), oracle.e.Counters(); fc != oc {
			t.Fatalf("n=%d, %d faces: counters diverged:\nfused  %+v\noracle %+v", n, len(faces), fc, oc)
		}
	})
}

// The operand shapes FuzzFluxFaceAcc draws for its one face: the valid ones
// (an in-plane face, on the wire or read from its receive buffers, and the
// two vertical faces, whose neighbor views overlap the own columns) and three
// ways the residual can alias an operand, which make FluxCell panic.
const (
	shapeInPlane = iota
	shapeUp
	shapeDown
	shapeResOverlapsInput
	shapeResOverlapsTr
	shapeResIsRecvBuf
	numAccShapes
)

// FuzzFluxFaceAcc holds one face's flux accumulated into the residual —
// FluxCell over a single face — to its op-by-op spelling (cellSequence) on
// columns 1–246 deep: the paper's depth and every tail past the 8-lane
// steps, deeper than FuzzFluxCell draws. On valid operands the residual
// bits and the counters are the oracle's and nothing else is written; on an
// aliased residual the op panics with a dsd: message, having written and
// counted nothing.
func FuzzFluxFaceAcc(f *testing.F) {
	for shape := 0; shape < numAccShapes; shape++ {
		f.Add(uint64(shape)*0x9e37+1, uint8(7+shape), uint8(shape))
	}
	f.Add(uint64(21), uint8(123), uint8(shapeInPlane))
	f.Add(uint64(22), uint8(1), uint8(shapeUp))
	f.Add(uint64(23), uint8(0), uint8(shapeResOverlapsInput)) // m = 1: exact overlap
	f.Add(uint64(24), uint8(0), uint8(shapeResIsRecvBuf))
	f.Add(uint64(25), uint8(245), uint8(shapeDown)) // m = 246, the paper's depth and the deepest draw
	// m = 16 … 23: two 8-lane steps and every tail length.
	for tail := 0; tail < 8; tail++ {
		f.Add(uint64(30+tail), uint8(15+tail), uint8(tail%3))
	}
	f.Fuzz(func(t *testing.T, seed uint64, size, shapeByte uint8) {
		m, shape := int(size)%246+1, int(shapeByte)%numAccShapes
		rng := rand.New(rand.NewPCG(seed, 0xacc))
		fused, oracle := newCellColumns(t, m), newCellColumns(t, m)
		w := fused.e.Mem.words
		drawColumn(rng, w[fused.pPad.Base:fused.pPad.Base+m+2], 2e7, 1e6)
		drawColumn(rng, w[fused.gzPad.Base:fused.gzPad.Base+m+2], -15000, 500)
		drawColumn(rng, w[fused.res.Base:fused.res.Base+2*m], 0, 1e-3) // stale residual and flux
		drawColumn(rng, w[fused.tr[0].Base:fused.tr[0].Base+m], 1e-12, 1e-12)
		for i := 0; i < m; i += 3 {
			w[fused.tr[0].Base+i] = specials[rng.IntN(2)] // Υ = ±0: a boundary face
		}
		drawColumn(rng, w[fused.nbrP[0].Base:fused.nbrP[0].Base+m], 2e7, 1e6)
		drawColumn(rng, w[fused.nbrGz[0].Base:fused.nbrGz[0].Base+m], -15000, 500)
		copy(oracle.e.Mem.words, w)
		before := append([]float32(nil), w...)

		wire := make([]float32, 2*m)
		drawColumn(rng, wire[:m], 2e7, 1e6)
		drawColumn(rng, wire[m:], -15000, 500)
		res, face := fused.res, fused.face(0, 0, nil)
		switch shape {
		case shapeInPlane:
			if rng.IntN(4) != 0 {
				face = fused.face(0, 0, wire)
			}
		case shapeUp:
			face = fused.face(slotUp, 0, nil)
		case shapeDown:
			face = fused.face(slotDown, 0, nil)
		case shapeResOverlapsInput: // partly for m > 1, exactly for m = 1
			res = fused.p.Shift(m / 2)
		case shapeResOverlapsTr:
			res = face.Tr.Shift(m / 2)
		case shapeResIsRecvBuf:
			face = fused.face(0, 0, wire)
			res = face.GzL
		}
		if shape > shapeDown {
			rejects(t, fused.e, func() { fused.e.FluxCell(res, fused.p, fused.gz, []Face{face}, testConsts) }, "overlaps")
			return
		}
		fused.e.FluxCell(res, fused.p, fused.gz, []Face{face}, testConsts)
		// The same face over the oracle's memory: the layouts are identical.
		cellSequence(oracle, []Face{face})

		for i, v := range w {
			want := before[i]
			if i >= fused.res.Base && i < fused.res.Base+m {
				want = oracle.e.Mem.words[i]
			}
			if !sameBits(v, want) {
				t.Fatalf("shape %d m=%d: word %d = %g (%#08x), want %g (%#08x)", shape, m, i,
					v, math.Float32bits(v), want, math.Float32bits(want))
			}
		}
		if fc, oc := fused.e.Counters(), oracle.e.Counters(); fc != oc {
			t.Fatalf("shape %d: counters diverged:\nfused  %+v\noracle %+v", shape, fc, oc)
		}
	})
}

func TestFluxCellPanicsLikeTheOps(t *testing.T) {
	const n = 8
	c := newCellColumns(t, n)
	oob := Desc{Base: c.e.Mem.capacity - 4, Len: n}
	wire := make([]float32, 2*n)
	all := make([]Face, maxCellFaces+1)
	for k := range all {
		all[k] = c.face(slotUp, 0, nil)
	}
	for _, tc := range []struct {
		name, want string
		res, pK    Desc
		faces      []Face
	}{
		{"residual length mismatch", "dsd: descriptor length mismatch", c.res.MustSlice(0, 4), c.p, []Face{c.face(0, 0, wire)}},
		{"input length mismatch", "dsd: descriptor length mismatch", c.res, c.p.MustSlice(0, 7), []Face{c.face(0, 0, wire)}},
		{"transmissibility length mismatch", "dsd: descriptor length mismatch", c.res, c.p, []Face{{Tr: c.tr[0].MustSlice(2, 5), PL: c.nbrP[0], GzL: c.nbrGz[0]}}},
		{"residual out of bounds", "out of memory bounds", oob, c.p, []Face{c.face(0, 0, wire)}},
		{"receive buffer out of bounds", "out of memory bounds", c.res, c.p, []Face{{Tr: c.tr[0], PL: oob, GzL: c.nbrGz[0], Wire: wire}}},
		{"wire length mismatch", "dsd: FluxCell wire of 15 words", c.res, c.p, []Face{c.face(1, 0, wire[1:])}},
		{"eleven faces", "dsd: FluxCell of 11 faces", c.res, c.p, all},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rejects(t, c.e, func() { c.e.FluxCell(tc.res, tc.pK, c.gz, tc.faces, testConsts) }, tc.want)
		})
	}
}

// TestFluxCellDoesNotAllocate: the flat engine's application, ten faces of
// which eight arrive on the wire, at the paper's depth.
func TestFluxCellDoesNotAllocate(t *testing.T) {
	const n = 246
	c := newCellColumns(t, n)
	wire := make([]float32, 2*n)
	faces := make([]Face, 0, maxCellFaces)
	for s := range 8 {
		faces = append(faces, c.face(s, s, wire))
	}
	faces = append(faces, c.face(slotDown, 8, nil), c.face(slotUp, 9, nil))
	allocs := testing.AllocsPerRun(100, func() {
		c.e.FluxCell(c.res, c.p, c.gz, faces, testConsts)
	})
	if allocs != 0 {
		t.Errorf("FluxCell allocates %.0f times per call, want 0", allocs)
	}
}
