package dsd

import (
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

		if !fused.e.FluxFace(fused.f, fused.tr, fused.p, fused.gz, pL, gzL, testConsts) {
			t.Fatalf("trial %d: FluxFace declined unit-stride operands (n=%d kind=%d)", trial, n, kind)
		}
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

func TestFluxFaceDeclinesIneligibleOperands(t *testing.T) {
	const n = 8
	c := newFaceColumns(t, 2*n)
	half := func(d Desc) Desc { return d.MustSlice(0, n) }
	f, tr, p, gz, nbrP, nbrGz := half(c.f), half(c.tr), half(c.p), half(c.gz), half(c.nbrP), half(c.nbrGz)
	strided := Desc{Base: c.nbrP.Base, Len: n, Stride: 2}

	cases := []struct {
		name                     string
		f, tr, pK, gzK, pL, gzL  Desc
		fastPathOff, wantFusable bool
	}{
		{name: "unit stride", f: f, tr: tr, pK: p, gzK: gz, pL: nbrP, gzL: nbrGz, wantFusable: true},
		{name: "strided input", f: f, tr: tr, pK: p, gzK: gz, pL: strided, gzL: nbrGz},
		{name: "strided output", f: strided, tr: tr, pK: p, gzK: gz, pL: c.tr.MustSlice(n, n), gzL: nbrGz},
		{name: "output overlaps input", f: p.Shift(1), tr: tr, pK: p, gzK: gz, pL: nbrP, gzL: nbrGz},
		{name: "fast path off", f: f, tr: tr, pK: p, gzK: gz, pL: nbrP, gzL: nbrGz, fastPathOff: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fastPathOff {
				defer SetFastPath(SetFastPath(false))
			}
			before := c.e.Counters()
			ran := c.e.FluxFace(tc.f, tc.tr, tc.pK, tc.gzK, tc.pL, tc.gzL, testConsts)
			if ran != tc.wantFusable {
				t.Fatalf("FluxFace ran = %v, want %v", ran, tc.wantFusable)
			}
			if !ran && c.e.Counters() != before {
				t.Error("a declined FluxFace still bumped the counters")
			}
		})
	}
}

func TestFluxFacePanicsLikeTheOps(t *testing.T) {
	c := newFaceColumns(t, 8)
	oob := Desc{Base: c.e.Mem.Capacity() - 4, Len: 8, Stride: 1}
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

// accShape names the operand shapes FuzzFluxFaceAcc draws: the eligible ones
// (in-plane and the two vertical faces, whose neighbor views overlap the own
// columns) and every way an operand can make the macro-op decline.
const (
	shapeInPlane = iota
	shapeUp
	shapeDown
	shapeStridedInput
	shapeStridedRes
	shapeResOverlapsInput
	shapeFluxOverlapsInput
	shapeResIsFlux
	shapeFastPathOff
	numAccShapes
)

// accOperands returns the eight descriptors of one FluxFaceAcc call over
// the layout c for the given shape; m ≤ n/2 elements, so that the stride-2
// views stay inside their n-word columns.
func accOperands(c *faceColumns, shape, m int) (res, f, tr, pK, gzK, pL, gzL Desc) {
	cut := func(d Desc) Desc { return d.MustSlice(0, m) }
	res, f, tr, pK, gzK, pL, gzL = cut(c.res), cut(c.f), cut(c.tr), cut(c.p), cut(c.gz), cut(c.nbrP), cut(c.nbrGz)
	switch shape {
	case shapeUp:
		pL, gzL = pK.Shift(1), gzK.Shift(1)
	case shapeDown:
		pL, gzL = pK.Shift(-1), gzK.Shift(-1)
	case shapeStridedInput:
		pL.Stride = 2
	case shapeStridedRes:
		res.Stride = 2
	case shapeResOverlapsInput: // partly for m > 1, exactly for m = 1
		res = pK.Shift(m / 2)
	case shapeFluxOverlapsInput:
		f = gzK.Shift(m / 2)
	case shapeResIsFlux:
		res = f
	}
	return
}

// FuzzFluxFaceAcc holds the fused flux-and-accumulate macro-op to its
// op-by-op spelling — FluxFace (or, where that declines, the 14-op sequence)
// into f, then AccV(res, f) — on random columns salted with special values
// and zero transmissibilities (fluxes of either zero sign): where it runs,
// res and the counters are those of the oracle and nothing but res is
// written; where it declines it has done nothing, and the caller's fallback
// is the oracle itself.
func FuzzFluxFaceAcc(f *testing.F) {
	for shape := 0; shape < numAccShapes; shape++ {
		f.Add(uint64(shape)*0x9e37+1, uint8(7+shape), uint8(shape))
	}
	f.Add(uint64(21), uint8(123), uint8(shapeInPlane))
	f.Add(uint64(22), uint8(1), uint8(shapeUp))
	f.Fuzz(func(t *testing.T, seed uint64, size, shapeByte uint8) {
		m, shape := int(size)%123+1, int(shapeByte)%numAccShapes
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

		if shape == shapeFastPathOff {
			defer SetFastPath(SetFastPath(false))
		}
		spell := func(c *faceColumns) {
			res, f, tr, pK, gzK, pL, gzL := accOperands(c, shape, m)
			if !c.e.FluxFace(f, tr, pK, gzK, pL, gzL, testConsts) {
				var sc [5]Desc
				for i := range sc {
					sc[i] = c.scratch[i].MustSlice(0, m)
				}
				fluxSequence(c.e, f, tr, pK, gzK, pL, gzL, testConsts, sc)
			}
			c.e.AccV(res, f)
		}
		spell(oracle)

		res, fd, tr, pK, gzK, pL, gzL := accOperands(fused, shape, m)
		ran := fused.e.FluxFaceAcc(res, fd, tr, pK, gzK, pL, gzL, testConsts)
		if want := shape <= shapeDown; ran != want {
			t.Fatalf("shape %d: FluxFaceAcc ran = %v, want %v", shape, ran, want)
		}
		if !ran {
			if fused.e.Counters() != (Counters{}) {
				t.Fatalf("shape %d: a declined FluxFaceAcc bumped the counters", shape)
			}
			for i, v := range w {
				if !sameBits(v, before[i]) {
					t.Fatalf("shape %d: a declined FluxFaceAcc wrote word %d", shape, i)
				}
			}
			spell(fused)
		}
		for i, v := range w {
			inF := ran && i >= fd.Base && i < fd.Base+m
			want := oracle.e.Mem.words[i]
			if inF {
				want = before[i] // the fused op never touches f
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
	oob := Desc{Base: c.e.Mem.Capacity() - 4, Len: 8, Stride: 1}
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
