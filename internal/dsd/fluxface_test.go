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
// Both the storing and the accumulating body are checked.
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
	for _, acc := range []bool{false, true} {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(i%7) - 3
		}
		before := append([]float32(nil), out...)
		c := testConsts
		done := fluxVector(out, cols[tr], cols[pk], cols[gk], cols[pl], cols[gl], &c, acc)
		if want := uint(n &^ 7); done != want {
			t.Fatalf("acc=%v: vector body ran %d of %d elements, want %d", acc, done, n, want)
		}
		for i := range out {
			want := before[i]
			if i < int(done) {
				f := fluxElem(cols[tr][i], cols[pk][i], cols[gk][i], cols[pl][i], cols[gl][i], testConsts)
				if acc {
					want += f
				} else {
					want = f
				}
			}
			if !sameBits(out[i], want) {
				t.Fatalf("acc=%v lane %d inputs %v: vector %g (%#08x), fluxElem %g (%#08x)", acc, i, lanes[i],
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

// TestFluxFaceRejectsAliasedOutputs: an output sharing a word with an input,
// or FluxFaceAcc's two outputs sharing one, is a kernel-construction bug —
// the macro-op panics with a dsd: message before it writes or counts
// anything. Disjoint operands, and inputs overlapping each other (the
// vertical faces), run.
func TestFluxFaceRejectsAliasedOutputs(t *testing.T) {
	const m = 8
	c := newFaceColumns(t, 2*m)
	_, f, tr, p, gz, nbrP, nbrGz := accOperands(c, shapeInPlane, m)
	type call struct {
		name string
		ok   bool
		run  func()
	}
	calls := []call{
		{"disjoint operands", true, func() { c.e.FluxFace(f, tr, p, gz, nbrP, nbrGz, testConsts) }},
		{"inputs overlap", true, func() { c.e.FluxFace(f, tr, p, gz, p.Shift(1), gz.Shift(1), testConsts) }},
		{"output overlaps input", false, func() { c.e.FluxFace(p.Shift(1), tr, p, gz, nbrP, nbrGz, testConsts) }},
	}
	for _, shape := range []int{shapeResOverlapsInput, shapeFluxOverlapsInput, shapeResIsFlux} {
		res, f, tr, pK, gzK, pL, gzL := accOperands(c, shape, m)
		calls = append(calls, call{accShapeNames[shape], false, func() {
			c.e.FluxFaceAcc(res, f, tr, pK, gzK, pL, gzL, testConsts)
		}})
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.ok {
				rejects(t, c.e, tc.run)
			} else if msg := panicMessage(tc.run); msg != "" {
				t.Fatalf("valid operands panicked: %s", msg)
			}
		})
	}
}

// rejects asserts that run panics with a dsd: message naming an overlap and
// leaves e's memory and counters as they were.
func rejects(t *testing.T, e *Engine, run func()) {
	t.Helper()
	before, counters := append([]float32(nil), e.Mem.words...), e.Counters()
	if msg := panicMessage(run); !strings.HasPrefix(msg, "dsd: ") || !strings.Contains(msg, "overlaps") {
		t.Fatalf("panic = %q, want a dsd: panic naming the overlap", msg)
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
	oob := Desc{Base: c.e.Mem.Capacity() - 4, Len: 8}
	for _, tc := range []struct {
		name, want string
		pL         Desc
	}{
		{"length mismatch", "dsd: descriptor length mismatch", c.nbrP.MustSlice(0, 4)},
		{"out of bounds", "out of memory bounds", oob},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.HasPrefix(msg, "dsd: ") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic = %v, want a dsd: panic containing %q", r, tc.want)
				}
			}()
			c.e.FluxFace(c.f, c.tr, c.p, c.gz, tc.pL, c.nbrGz, testConsts)
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

// accShape names the operand shapes FuzzFluxFaceAcc draws: the valid ones
// (in-plane and the two vertical faces, whose neighbor views overlap the own
// columns) and the three ways an output can alias another operand, which
// make the macro-op panic.
const (
	shapeInPlane = iota
	shapeUp
	shapeDown
	shapeResOverlapsInput
	shapeFluxOverlapsInput
	shapeResIsFlux
	numAccShapes
)

var accShapeNames = [numAccShapes]string{
	"in-plane", "up", "down", "residual overlaps input", "flux overlaps input", "residual is flux",
}

// accOperands returns the eight descriptors of one FluxFaceAcc call over
// the layout c for the given shape, m ≤ n/2 elements long.
func accOperands(c *faceColumns, shape, m int) (res, f, tr, pK, gzK, pL, gzL Desc) {
	cut := func(d Desc) Desc { return d.MustSlice(0, m) }
	res, f, tr, pK, gzK, pL, gzL = cut(c.res), cut(c.f), cut(c.tr), cut(c.p), cut(c.gz), cut(c.nbrP), cut(c.nbrGz)
	switch shape {
	case shapeUp:
		pL, gzL = pK.Shift(1), gzK.Shift(1)
	case shapeDown:
		pL, gzL = pK.Shift(-1), gzK.Shift(-1)
	case shapeResOverlapsInput: // partly for m > 1, exactly for m = 1
		res = pK.Shift(m / 2)
	case shapeFluxOverlapsInput:
		f = gzK.Shift(m / 2)
	case shapeResIsFlux:
		res = f
	}
	return
}

// FuzzFluxFaceAcc holds the fused flux-and-accumulate macro-op to the
// op-by-op kernel — fluxSequence into f through scratch columns, then
// AccV(res, f), which share no code with the macro-op's vector body or
// fluxElem — on random columns 1–246 deep (every tail length past the 8-lane
// steps) salted with special values and zero transmissibilities (fluxes of
// either zero sign): on valid operands res and the counters are those of the
// oracle and nothing but res is written; on aliased outputs it panics with a
// dsd: message, having written and counted nothing.
func FuzzFluxFaceAcc(f *testing.F) {
	for shape := 0; shape < numAccShapes; shape++ {
		f.Add(uint64(shape)*0x9e37+1, uint8(7+shape), uint8(shape))
	}
	f.Add(uint64(21), uint8(123), uint8(shapeInPlane))
	f.Add(uint64(22), uint8(1), uint8(shapeUp))
	f.Add(uint64(23), uint8(0), uint8(shapeResOverlapsInput)) // m = 1: exact overlap
	f.Add(uint64(24), uint8(0), uint8(shapeResIsFlux))
	f.Add(uint64(25), uint8(245), uint8(shapeDown)) // m = 246, the paper's depth and the deepest draw
	// m = 16 … 23: two 8-lane steps and every tail length.
	for tail := 0; tail < 8; tail++ {
		f.Add(uint64(30+tail), uint8(15+tail), uint8(tail%3))
	}
	f.Fuzz(func(t *testing.T, seed uint64, size, shapeByte uint8) {
		m, shape := int(size)%246+1, int(shapeByte)%numAccShapes
		n := 2 * m
		rng := rand.New(rand.NewPCG(seed, 0xacc))
		fused, oracle := newFaceColumns(t, n), newFaceColumns(t, n)
		w := fused.e.Mem.words
		drawColumn(rng, w[fused.pPad.Base:fused.pPad.Base+n+2], 2e7, 1e6)
		drawColumn(rng, w[fused.gzPad.Base:fused.gzPad.Base+n+2], -15000, 500)
		drawColumn(rng, w[fused.nbrP.Base:fused.nbrP.Base+n], 2e7, 1e6)
		drawColumn(rng, w[fused.nbrGz.Base:fused.nbrGz.Base+n], -15000, 500)
		drawColumn(rng, w[fused.tr.Base:fused.tr.Base+n], 1e-12, 1e-12)
		drawColumn(rng, w[fused.res.Base:fused.res.Base+n], 0, 1e-3) // a residual part-way through assembly
		for i := 0; i < n; i += 3 {
			w[fused.tr.Base+i] = specials[rng.IntN(2)] // Υ = ±0: a boundary face
		}
		for i := range w[fused.f.Base : fused.f.Base+n] { // stale flux content
			w[fused.f.Base+i] = 99
		}
		copy(oracle.e.Mem.words, w)
		before := append([]float32(nil), w...)

		res, fd, tr, pK, gzK, pL, gzL := accOperands(fused, shape, m)
		if shape > shapeDown {
			rejects(t, fused.e, func() { fused.e.FluxFaceAcc(res, fd, tr, pK, gzK, pL, gzL, testConsts) })
			return
		}
		fused.e.FluxFaceAcc(res, fd, tr, pK, gzK, pL, gzL, testConsts)

		ores, of, otr, opK, ogzK, opL, ogzL := accOperands(oracle, shape, m)
		var scratch [5]Desc
		for k, d := range oracle.scratch {
			scratch[k] = d.MustSlice(0, m)
		}
		fluxSequence(oracle.e, of, otr, opK, ogzK, opL, ogzL, testConsts, scratch)
		oracle.e.AccV(ores, of)
		untouched := func(i int) bool { // the fused op never writes f or the scratch columns
			return i >= fd.Base && i < fd.Base+m || i >= fused.scratch[0].Base
		}
		for i, v := range w {
			want := oracle.e.Mem.words[i]
			if untouched(i) {
				want = before[i]
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

func TestFluxFaceAccPanicsLikeTheOps(t *testing.T) {
	c := newFaceColumns(t, 8)
	oob := Desc{Base: c.e.Mem.Capacity() - 4, Len: 8}
	for _, tc := range []struct {
		name, want  string
		res, f, gzL Desc
	}{
		{"residual length mismatch", "dsd: descriptor length mismatch", c.res.MustSlice(0, 4), c.f, c.nbrGz},
		{"flux length mismatch", "dsd: descriptor length mismatch", c.res, c.f.MustSlice(2, 5), c.nbrGz},
		{"input length mismatch", "dsd: descriptor length mismatch", c.res, c.f, c.nbrGz.MustSlice(0, 7)},
		{"residual out of bounds", "out of memory bounds", oob, c.f, c.nbrGz},
		{"flux out of bounds", "out of memory bounds", c.res, oob, c.nbrGz},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.HasPrefix(msg, "dsd: ") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic = %v, want a dsd: panic containing %q", r, tc.want)
				}
			}()
			c.e.FluxFaceAcc(tc.res, tc.f, c.tr, c.p, c.gz, c.nbrP, tc.gzL, testConsts)
		})
	}
}

func TestFluxFaceAccDoesNotAllocate(t *testing.T) {
	c := newFaceColumns(t, 246)
	allocs := testing.AllocsPerRun(100, func() {
		c.e.FluxFaceAcc(c.res, c.f, c.tr, c.p, c.gz, c.nbrP, c.nbrGz, testConsts)
	})
	if allocs != 0 {
		t.Errorf("FluxFaceAcc allocates %.0f times per call, want 0", allocs)
	}
}
