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
