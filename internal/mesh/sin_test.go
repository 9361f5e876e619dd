package mesh

import (
	"math"
	"math/rand/v2"
	"testing"
)

// checkSinVector runs the sine's vector body (callers check vectorSin) over
// xs and fails on any lane that is neither NaN (recompute) nor sin32's value
// bit for bit; it returns the number of lanes marked.
func checkSinVector(t *testing.T, xs []float32) (marked int) {
	t.Helper()
	xs = xs[:len(xs)&^3]
	if len(xs) == 0 {
		return 0
	}
	s := make([]float32, len(xs))
	sinVector(s, xs)
	for i, v := range s {
		if v != v {
			marked++
			continue
		}
		if want := sin32(xs[i]); math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("sin(%g = %#08x) = %g (%#08x) in the vector body, sin32 gives %g (%#08x)",
				xs[i], math.Float32bits(xs[i]), v, math.Float32bits(v), want, math.Float32bits(want))
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
		t.Logf("vector body: %d of %d arguments recomputed with sin32", marked, 8*d.Cells())
	}
}

// TestSinVectorMatchesSin32: random float32 arguments over the reduction's
// range and beyond, and the special values, each lane either sin32's bits or
// marked — the arguments outside [2⁻²⁰, 2²⁰) and the non-finite ones always.
func TestSinVectorMatchesSin32(t *testing.T) {
	if !vectorSin {
		t.Skip("no vector body for the sine on this host")
	}
	specials := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		1e-40, 0x1p-21, 0x1p-20, -0x1p-20, 0x1p20, -0x1p20, 0x1p20 - 0.0625, math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Pi / 2, math.Pi, 3 * math.Pi / 2, 2 * math.Pi, 355, 103993, -103993,
	}
	checkSinVector(t, append(specials, 0, 0)) // padded to whole steps
	s := make([]float32, 4)
	for i, x := range []float32{0x1p-21, 0x1p20, float32(math.Inf(1)), float32(math.NaN())} {
		sinVector(s, []float32{x, x, x, x})
		if s[0] == s[0] {
			t.Errorf("argument %d (%g) outside the reduction's range came back unmarked: %g", i, x, s[0])
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
	t.Logf("vector body: %d of %d random arguments marked", marked, len(xs))
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
