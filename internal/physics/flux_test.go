package physics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFaceFluxAntisymmetry(t *testing.T) {
	f := testFluid()
	cfg := quick.Config{MaxCount: 500}
	err := quick.Check(func(rawPK, rawPL, rawZK, rawZL float64) bool {
		pK := 1.4e7 + 2e6*frac(rawPK)
		pL := 1.4e7 + 2e6*frac(rawPL)
		zK := 1500 + 100*frac(rawZK)
		zL := 1500 + 100*frac(rawZL)
		const trans = 1e-12
		fKL := f.FaceFlux(trans, pK, pL, zK, zL)
		fLK := f.FaceFlux(trans, pL, pK, zL, zK)
		return math.Abs(fKL+fLK) <= 1e-12*(math.Abs(fKL)+1)
	}, &cfg)
	if err != nil {
		t.Error(err)
	}
}

// frac maps an arbitrary float into [0,1) deterministically.
func frac(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	v := math.Mod(math.Abs(x), 1)
	return v
}

func TestFaceFluxZeroForUniformPressureNoGravity(t *testing.T) {
	f := testFluid()
	f.Gravity = 0
	if got := f.FaceFlux(1e-12, 2e7, 2e7, 1500, 1520); got != 0 {
		t.Errorf("uniform pressure, no gravity: flux = %g, want 0", got)
	}
}

func TestFaceFluxZeroForSameElevationSamePressure(t *testing.T) {
	f := testFluid()
	if got := f.FaceFlux(1e-12, 2e7, 2e7, 1500, 1500); got != 0 {
		t.Errorf("same state: flux = %g, want 0", got)
	}
}

func TestFaceFluxSignFollowsPressureGradient(t *testing.T) {
	f := testFluid()
	f.Gravity = 0
	// pL > pK → ΔΦ > 0 → F = Υ·λ·ΔΦ > 0.
	if got := f.FaceFlux(1e-12, 1.9e7, 2.0e7, 1500, 1500); got <= 0 {
		t.Errorf("inflow flux should be positive, got %g", got)
	}
	if got := f.FaceFlux(1e-12, 2.0e7, 1.9e7, 1500, 1500); got >= 0 {
		t.Errorf("outflow flux should be negative, got %g", got)
	}
}

func TestFaceFluxLinearInTransmissibility(t *testing.T) {
	f := testFluid()
	cfg := quick.Config{MaxCount: 300}
	err := quick.Check(func(rawT float64) bool {
		tr := 1e-13 * (1 + 9*frac(rawT))
		f1 := f.FaceFlux(tr, 1.9e7, 2.0e7, 1500, 1510)
		f2 := f.FaceFlux(2*tr, 1.9e7, 2.0e7, 1500, 1510)
		return math.Abs(f2-2*f1) <= 1e-12*math.Abs(f2)
	}, &cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestFaceFluxZeroTransmissibility(t *testing.T) {
	f := testFluid()
	if got := f.FaceFlux(0, 1e7, 3e7, 1000, 2000); got != 0 {
		t.Errorf("zero transmissibility must give zero flux, got %g", got)
	}
}

func TestUpwindSelection(t *testing.T) {
	f := testFluid()
	f.Gravity = 0
	pK, pL := 1.9e7, 2.0e7 // ΔΦ = pL − pK > 0 → upwind is K
	if got, want := f.FaceFlux(1, pK, pL, 0, 0), f.Density(pK)/f.Viscosity*(pL-pK); got != want {
		t.Errorf("flux = %g, want K-side mobility · ΔΦ = %g", got, want)
	}
	// Swapped, ΔΦ < 0 and the upwind cell is the new L, the old K.
	if got, want := f.FaceFlux(1, pL, pK, 0, 0), f.Density(pK)/f.Viscosity*(pK-pL); got != want {
		t.Errorf("flux = %g, want L-side mobility · ΔΦ = %g", got, want)
	}
}

func TestGravitySegregation(t *testing.T) {
	// Equal pressures, L higher than K (z is elevation): ΔΦ = ρg(zL−zK) > 0,
	// so the potential drives flow and the flux is positive.
	f := testFluid()
	got := f.FaceFlux(1e-12, 2e7, 2e7, -1510, -1500)
	if got <= 0 {
		t.Errorf("gravity-driven flux should be positive, got %g", got)
	}
}

func TestPotentialDifferenceHydrostaticBalance(t *testing.T) {
	// With an incompressible fluid, the hydrostatic profile
	// p(z) = p0 − ρ·g·z (z is elevation) makes ΔΦ exactly zero (Eq. 3b).
	f := testFluid()
	f.Compressibility = 0
	zK, zL := -1500.0, -1525.0
	p0 := 1e5
	pK := p0 - f.RhoRef*f.Gravity*zK
	pL := p0 - f.RhoRef*f.Gravity*zL
	// FaceFlux = Υ·λ·ΔΦ with Υ = 1, so ΔΦ = flux/λ.
	if dPhi := f.FaceFlux(1, pK, pL, zK, zL) / f.Mobility(pK); math.Abs(dPhi) > 1e-6 {
		t.Errorf("hydrostatic ΔΦ = %g, want ~0", dPhi)
	}
}
