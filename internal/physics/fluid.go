// Package physics implements the compressible single-phase Darcy-flow fluid
// model and the two-point flux approximation (TPFA) face flux used by every
// engine in this repository (host reference, wafer-scale dataflow kernel, and
// the GPU-style kernels).
//
// Governing equations (paper §3):
//
//	u = -(κ/μ)(∇p − ρg)                      Darcy's law        (1a)
//	∂(φρ)/∂t + ∇·(ρu) = 0                    mass balance       (1b)
//
// discretized with a low-order finite-volume scheme. This work evaluates the
// interfacial flux term only (the accumulation term is neglected, §3):
//
//	F_KL  = Υ_KL · λ_upw · ΔΦ_KL             (3a)
//	ΔΦ_KL = p_L − p_K + ρ_avg·g·(z_L − z_K)  (3b)
//	λ_upw = ρ_K/μ  if ΔΦ_KL > 0, else ρ_L/μ  (4)
//	ρ_K   = ρref·exp(cf·(p_K − pref))        (5)
//
// Two density models are provided: the exponential Eq. 5 and its
// slight-compressibility linearization ρ ≈ ρref·(1 + cf·(p − pref)), which is
// the form whose operation count matches the paper's Table 4 (§5.3.3).
package physics

import (
	"fmt"
	"math"
)

// DensityModel selects how density is evaluated from pressure.
type DensityModel int

const (
	// DensityExponential is the slight-compressibility exponential Eq. 5.
	DensityExponential DensityModel = iota
	// DensityLinear is the first-order linearization of Eq. 5, used by the
	// dataflow kernel so that its instruction mix matches Table 4.
	DensityLinear
)

// String implements fmt.Stringer.
func (m DensityModel) String() string {
	switch m {
	case DensityExponential:
		return "exponential"
	case DensityLinear:
		return "linear"
	default:
		return fmt.Sprintf("DensityModel(%d)", int(m))
	}
}

// Fluid holds the constant fluid properties of the slightly compressible
// single-phase model (paper §3). Viscosity is constant; density and porosity
// depend on pressure only.
type Fluid struct {
	// RhoRef is the reference density ρref in kg/m³.
	RhoRef float64
	// PRef is the reference pressure pref in Pa.
	PRef float64
	// Compressibility is the fluid compressibility cf in 1/Pa.
	Compressibility float64
	// Viscosity is the constant dynamic viscosity μ in Pa·s.
	Viscosity float64
	// Gravity is the gravitational acceleration g in m/s².
	Gravity float64
	// Model selects the density evaluation (exponential or linearized).
	Model DensityModel
}

// DefaultFluid returns fluid properties representative of supercritical CO2
// at storage conditions: these values exercise realistic gravity and upwind
// behaviour and are used by the Examples and experiments.
func DefaultFluid() Fluid {
	return Fluid{
		RhoRef:          700.0,   // kg/m³
		PRef:            1.5e7,   // 150 bar
		Compressibility: 1e-8,    // 1/Pa
		Viscosity:       6e-5,    // 0.06 cP in Pa·s
		Gravity:         9.80665, // m/s²
		Model:           DensityExponential,
	}
}

// Validate reports a descriptive error if the fluid properties are unusable.
func (f Fluid) Validate() error {
	switch {
	case !(f.RhoRef > 0) || math.IsInf(f.RhoRef, 0):
		return fmt.Errorf("physics: reference density must be positive and finite, got %v", f.RhoRef)
	case !(f.Viscosity > 0) || math.IsInf(f.Viscosity, 0):
		return fmt.Errorf("physics: viscosity must be positive and finite, got %v", f.Viscosity)
	case f.Compressibility < 0 || math.IsNaN(f.Compressibility):
		return fmt.Errorf("physics: compressibility must be non-negative, got %v", f.Compressibility)
	case f.Gravity < 0 || math.IsNaN(f.Gravity):
		return fmt.Errorf("physics: gravity must be non-negative, got %v", f.Gravity)
	case math.IsNaN(f.PRef) || math.IsInf(f.PRef, 0):
		return fmt.Errorf("physics: reference pressure must be finite, got %v", f.PRef)
	case f.Model != DensityExponential && f.Model != DensityLinear:
		return fmt.Errorf("physics: unknown density model %d", int(f.Model))
	}
	return nil
}

// Density evaluates ρ(p) with the configured model (Eq. 5 or its
// linearization).
func (f Fluid) Density(p float64) float64 {
	switch f.Model {
	case DensityLinear:
		return f.RhoRef * (1 + f.Compressibility*(p-f.PRef))
	default:
		return f.RhoRef * math.Exp(f.Compressibility*(p-f.PRef))
	}
}

// LinearCoefficients returns (â, ĉ) of the linearized density ρ = â·p + ĉ:
//
//	â = ρref·cf
//	ĉ = ρref·(1 − cf·pref)
//
// These are the constants the dataflow kernel bakes into its per-PE state
// (dsd.FluxConsts, §5.3.3). The product cf·pref is rounded before the
// subtraction, so a target that may fuse it (arm64's FMSUBD) bakes the same ĉ
// into every PE.
func (f Fluid) LinearCoefficients() (aHat, cHat float64) {
	aHat = f.RhoRef * f.Compressibility
	cHat = f.RhoRef * (1 - float64(f.Compressibility*f.PRef))
	return aHat, cHat
}

// WithModel returns a copy of f using the given density model.
func (f Fluid) WithModel(m DensityModel) Fluid {
	f.Model = m
	return f
}

// Float32 returns the fluid constants narrowed to float32 for the
// single-precision kernels (CS-2 PEs and the GPU model compute in fp32).
type Float32 struct {
	AHat  float32 // ρref·cf
	CHat  float32 // ρref(1 − cf·pref)
	NegC  float32 // −ĉ (the kernel subtracts a negative constant, dsd.FluxConsts)
	InvMu float32 // 1/μ
}

// Constants32 packages the single-precision constants used by the fp32
// kernels.
func (f Fluid) Constants32() Float32 {
	a, c := f.LinearCoefficients()
	return Float32{
		AHat:  float32(a),
		CHat:  float32(c),
		NegC:  float32(-c),
		InvMu: float32(1 / f.Viscosity),
	}
}
