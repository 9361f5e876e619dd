package mesh

import (
	"math"
	"math/rand/v2"
	"testing"
)

// sinLane runs the vector pass over one group of four whose every lane's
// argument is x (phase x, index 0, amplitude 1, p = −0, so p + sin is the
// sine's bits) and returns the sine and whether the pass kept the lane — a
// lane it marks stops it before the group, leaving p as it was.
func sinLane(t *testing.T, x float32) (float32, bool) {
	t.Helper()
	negZero := float32(math.Copysign(0, -1))
	p := []float32{negZero, negZero, negZero, negZero}
	switch done := perturbVector(p, x, 0, 0, 1); done {
	case 0:
		for _, v := range p {
			if math.Float32bits(v) != math.Float32bits(negZero) {
				t.Fatalf("sin(%g): the pass stopped at the group but wrote %v", x, p)
			}
		}
		return 0, false
	case 4:
		for _, v := range p[1:] {
			if math.Float32bits(v) != math.Float32bits(p[0]) {
				t.Fatalf("sin(%g): lanes of one argument differ: %v", x, p)
			}
		}
		return p[0], true
	default:
		t.Fatalf("sin(%g): the pass did %d of 4 elements", x, done)
		return 0, false
	}
}

// checkSinVector runs the vector pass (callers check vectorSin) on every
// argument of xs and fails on any lane it keeps that is not sin32's value
// bit for bit; it returns the number of lanes marked.
func checkSinVector(t *testing.T, xs []float32) (marked int) {
	t.Helper()
	for _, x := range xs {
		v, kept := sinLane(t, x)
		if !kept {
			marked++
			continue
		}
		if want := sin32(x); math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("sin(%g = %#08x) = %g (%#08x) in the vector pass, sin32 gives %g (%#08x)",
				x, math.Float32bits(x), v, math.Float32bits(v), want, math.Float32bits(want))
		}
	}
	return marked
}

// TestPerturbColumn32ExhaustiveOnBenchmarkMesh: every argument the
// perturbation schedule reaches on the paper-depth benchmark mesh
// (applications 1–8 over every cell of 24×24×246, 1.13 M sines) gives the
// per-PE column form the field form's bits. The amplitude is 1, so the
// perturbed zero field is the sine itself and no bit of it is rounded away.
func TestPerturbColumn32ExhaustiveOnBenchmarkMesh(t *testing.T) {
	d := Dims{Nx: 24, Ny: 24, Nz: 246}
	step := d.Nx * d.Ny
	field := make([]float32, d.Cells())
	col := make([]float32, d.Nz)
	xs := make([]float32, 0, d.Cells())
	marked := 0
	for app := 1; app <= 8; app++ {
		clear(field)
		PerturbPressure32(field, app, 1)
		for first := 0; first < step; first++ {
			clear(col)
			PerturbColumn32(col, app, first, step, 1)
			for z, v := range col {
				if want := field[first+z*step]; math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("app %d cell %d: column form %g (%#08x), field form %g (%#08x)",
						app, first+z*step, v, math.Float32bits(v), want, math.Float32bits(want))
				}
			}
		}
		if vectorSin {
			phase := float32(0.7 * float32(app))
			xs = xs[:0]
			for i := range field {
				xs = append(xs, phase+float32(0.001*float32(i)))
			}
			marked += checkSinVector(t, xs)
		}
	}
	if vectorSin {
		t.Logf("vector pass: %d of %d arguments left to sin32", marked, 8*d.Cells())
	}
}

// TestSinVectorMatchesSin32: random float32 arguments over the reduction's
// range and beyond, and the special values, each lane either sin32's bits or
// marked — the arguments outside [2⁻²⁰, 2²⁰) and the non-finite ones always.
func TestSinVectorMatchesSin32(t *testing.T) {
	if !vectorSin {
		t.Skip("no vector pass for the perturbation on this host")
	}
	specials := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		1e-40, 0x1p-21, 0x1p-20, -0x1p-20, 0x1p20, -0x1p20, 0x1p20 - 0.0625, math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Pi / 2, math.Pi, 3 * math.Pi / 2, 2 * math.Pi, 355, 103993, -103993,
	}
	checkSinVector(t, specials)
	for i, x := range []float32{0x1p-21, 0x1p20, float32(math.Inf(1)), float32(math.NaN())} {
		if v, kept := sinLane(t, x); kept {
			t.Errorf("argument %d (%g) outside the reduction's range came back unmarked: %g", i, x, v)
		}
	}

	rng := rand.New(rand.NewPCG(7, 0x51e))
	xs := make([]float32, 1<<20)
	for i := range xs {
		// Uniform over the bit patterns of [2⁻²², 2²²), both signs: every
		// binade of the range and two past each end.
		b := 0x34800000 + rng.Uint32N(0x4a800000-0x34800000)
		if rng.IntN(2) == 0 {
			b |= 0x80000000
		}
		xs[i] = math.Float32frombits(b)
	}
	marked := checkSinVector(t, xs)
	t.Logf("vector pass: %d of %d random arguments marked", marked, len(xs))
}

// perturbDeltas checks PerturbColumn32 of a column of n elements at indices
// first + z·step against PerturbDelta32 bit for bit.
func perturbDeltas(t *testing.T, app, first, step, n int) {
	t.Helper()
	col, want := make([]float32, n), make([]float32, n)
	for z := range col {
		col[z] = 2e7 + float32(z)
		want[z] = col[z] + PerturbDelta32(app, first+z*step, PerturbAmplitude)
	}
	PerturbColumn32(col, app, first, step, PerturbAmplitude)
	for z := range col {
		if math.Float32bits(col[z]) != math.Float32bits(want[z]) {
			t.Fatalf("app %d, index %d: column form %g (%#08x), per-cell form %g (%#08x)",
				app, first+z*step, col[z], math.Float32bits(col[z]), want[z], math.Float32bits(want[z]))
		}
	}
}

// TestPerturbColumn32FinishesMarkedGroups: a Ziv-marked lane in a column's
// first, a middle and its last whole group stops the vector pass there, and
// the Go loop's finish of that group keeps every element PerturbDelta32's.
// The marks are a zero argument (application 0 at index 0, below the
// reduction's range) and the first index whose argument at application 1
// the pass leaves to sin32 (a value near a float32 rounding boundary).
func TestPerturbColumn32FinishesMarkedGroups(t *testing.T) {
	if !vectorSin {
		t.Skip("no vector pass for the perturbation on this host")
	}
	arg := func(app, idx int) float32 { return float32(0.7*float32(app)) + float32(0.001*float32(idx)) }
	ziv := 1
	for ; ; ziv++ {
		if _, kept := sinLane(t, arg(1, ziv)); !kept {
			break
		}
	}
	const n = 23 // five whole groups and a tail of three
	for _, mark := range []struct{ app, idx int }{{0, 0}, {1, ziv}} {
		for _, z0 := range []int{0, 9, 19} {
			first := mark.idx - z0
			p := make([]float32, n)
			if done := perturbVector(p, arg(mark.app, 0), first, 1, PerturbAmplitude); done != z0&^3 {
				t.Fatalf("mark at index %d (element %d): the pass did %d elements, want %d", mark.idx, z0, done, z0&^3)
			}
			perturbDeltas(t, mark.app, first, 1, n)
		}
	}
}

// TestPerturbColumn32PastInt32: a column whose indices pass 2³¹ (and one
// whose stride alone does) takes the Go loop and still gives every element
// PerturbDelta32's bits; the benchmark mesh's columns fit the vector lanes.
func TestPerturbColumn32PastInt32(t *testing.T) {
	if !int32Lanes(24*24-1, 24*24, 246) {
		t.Fatal("the benchmark mesh's last column does not fit int32 lanes")
	}
	for _, c := range []struct{ first, step, n int }{
		{math.MaxInt32 - 40, 3, 30},
		{5, math.MaxInt32 + 1, 9},
		{math.MinInt32 + 4, -1, 12},
	} {
		if int32Lanes(c.first, c.step, c.n) {
			t.Fatalf("indices %d + z·%d, z < %d, accepted for int32 lanes", c.first, c.step, c.n)
		}
		for _, app := range []int{1, 5} {
			perturbDeltas(t, app, c.first, c.step, c.n)
		}
	}
}

// BenchmarkPerturbColumn times one paper-depth column's perturbation (246
// cells at the 24×24 mesh's stride, application 3) through the sine's vector
// body and through sin32 alone.
func BenchmarkPerturbColumn(b *testing.B) {
	for _, variant := range []string{"vector", "scalar"} {
		b.Run(variant, func(b *testing.B) {
			if variant == "vector" && !vectorSin {
				b.Skip("no vector body for the sine on this host")
			}
			defer func(v bool) { vectorSin = v }(vectorSin)
			vectorSin = variant == "vector"
			col := make([]float32, 246)
			b.SetBytes(4 * int64(len(col)))
			for b.Loop() {
				PerturbColumn32(col, 3, 100, 24*24, PerturbAmplitude)
			}
		})
	}
}
