package physics

import (
	"math"
	"testing"
	"testing/quick"
)

func testFluid() Fluid { return DefaultFluid() }

// Mobility evaluates λ(p) = ρ(p)/μ.
func (f Fluid) Mobility(p float64) float64 {
	return f.Density(p) / f.Viscosity
}

func TestDefaultFluidValidates(t *testing.T) {
	if err := DefaultFluid().Validate(); err != nil {
		t.Fatalf("default fluid invalid: %v", err)
	}
}

func TestValidateRejectsBadFluids(t *testing.T) {
	base := DefaultFluid()
	cases := []struct {
		name   string
		mutate func(*Fluid)
	}{
		{"zero density", func(f *Fluid) { f.RhoRef = 0 }},
		{"negative density", func(f *Fluid) { f.RhoRef = -1 }},
		{"inf density", func(f *Fluid) { f.RhoRef = math.Inf(1) }},
		{"zero viscosity", func(f *Fluid) { f.Viscosity = 0 }},
		{"negative compressibility", func(f *Fluid) { f.Compressibility = -1e-9 }},
		{"nan compressibility", func(f *Fluid) { f.Compressibility = math.NaN() }},
		{"negative gravity", func(f *Fluid) { f.Gravity = -9.8 }},
		{"nan pref", func(f *Fluid) { f.PRef = math.NaN() }},
		{"bad model", func(f *Fluid) { f.Model = DensityModel(99) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := base
			c.mutate(&f)
			if err := f.Validate(); err == nil {
				t.Error("expected validation error, got nil")
			}
		})
	}
}

func TestDensityAtReference(t *testing.T) {
	for _, model := range []DensityModel{DensityExponential, DensityLinear} {
		f := testFluid().WithModel(model)
		if got := f.Density(f.PRef); got != f.RhoRef {
			t.Errorf("model %v: Density(pref) = %g, want %g", model, got, f.RhoRef)
		}
	}
}

func TestDensityMonotonicInPressure(t *testing.T) {
	for _, model := range []DensityModel{DensityExponential, DensityLinear} {
		f := testFluid().WithModel(model)
		prev := f.Density(1e6)
		for p := 2e6; p <= 5e7; p += 1e6 {
			cur := f.Density(p)
			if cur <= prev {
				t.Fatalf("model %v: density not increasing at p=%g: %g <= %g", model, p, cur, prev)
			}
			prev = cur
		}
	}
}

func TestLinearizationMatchesExponentialNearPRef(t *testing.T) {
	exp := testFluid().WithModel(DensityExponential)
	lin := testFluid().WithModel(DensityLinear)
	// Within ±10 bar of pref, cf·Δp ≈ 1e-2: the models agree to O(1e-4) rel.
	for dp := -1e6; dp <= 1e6; dp += 1e5 {
		p := exp.PRef + dp
		re, rl := exp.Density(p), lin.Density(p)
		if rel := math.Abs(re-rl) / re; rel > 1e-4 {
			t.Errorf("densities diverge at Δp=%g: exp=%g lin=%g rel=%g", dp, re, rl, rel)
		}
	}
}

func TestLinearCoefficientsReproduceLinearDensity(t *testing.T) {
	f := testFluid().WithModel(DensityLinear)
	a, c := f.LinearCoefficients()
	cfg := quick.Config{MaxCount: 200}
	err := quick.Check(func(raw float64) bool {
		p := 1e7 + 1e7*math.Abs(math.Mod(raw, 1)) // pressures in [1e7, 2e7]
		return math.Abs((a*p+c)-f.Density(p)) < 1e-9*f.RhoRef
	}, &cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestMobilityIsDensityOverViscosity(t *testing.T) {
	f := testFluid()
	p := 2e7
	if got, want := f.Mobility(p), f.Density(p)/f.Viscosity; got != want {
		t.Errorf("Mobility = %g, want %g", got, want)
	}
}

func TestConstants32Consistency(t *testing.T) {
	f := testFluid()
	c := f.Constants32()
	a, ch := f.LinearCoefficients()
	if c.AHat != float32(a) || c.CHat != float32(ch) {
		t.Error("Constants32 linear coefficients disagree with LinearCoefficients")
	}
	if c.NegC != -c.CHat {
		t.Errorf("NegC = %g, want %g", c.NegC, -c.CHat)
	}
	if c.InvMu != float32(1/f.Viscosity) {
		t.Error("InvMu mismatch")
	}
}

func TestIncompressibleFluidDensityConstant(t *testing.T) {
	f := testFluid()
	f.Compressibility = 0
	for _, model := range []DensityModel{DensityExponential, DensityLinear} {
		f.Model = model
		for _, p := range []float64{0, 1e6, 1e8} {
			if got := f.Density(p); got != f.RhoRef {
				t.Errorf("model %v: incompressible density at p=%g is %g, want %g", model, p, got, f.RhoRef)
			}
		}
	}
}

func TestDensityModelString(t *testing.T) {
	if DensityExponential.String() != "exponential" || DensityLinear.String() != "linear" {
		t.Error("DensityModel.String names wrong")
	}
	if DensityModel(42).String() == "" {
		t.Error("unknown model should still render")
	}
}

func TestWithModelDoesNotMutateReceiver(t *testing.T) {
	f := testFluid()
	_ = f.WithModel(DensityLinear)
	if f.Model != DensityExponential {
		t.Error("WithModel mutated its receiver")
	}
}
