package mesh

import (
	"fmt"
	"math"
)

// TransOptions controls the transmissibility assembly.
type TransOptions struct {
	// DiagonalWeight scales the four in-plane diagonal transmissibilities
	// relative to the geometric value of a same-plane face. The paper's
	// standard TPFA scheme has zero diagonal coupling on a Cartesian mesh;
	// the diagonal fluxes were implemented "to prepare the communication
	// pattern for either higher-accuracy schemes or more intricate meshes"
	// (§3). A non-zero default keeps those code paths numerically live.
	// Set to 0 for textbook TPFA.
	DiagonalWeight float64
}

// DefaultTransOptions enables diagonal faces with a small weight so that the
// diagonal communication and flux paths carry real data.
func DefaultTransOptions() TransOptions { return TransOptions{DiagonalWeight: 0.125} }

// ComputeTransmissibilities fills m.Trans from the permeability field using
// the standard TPFA half-transmissibility construction with harmonic
// averaging:
//
//	Υ_KL = A / d · 2·κK·κL / (κK + κL)
//
// where A is the shared face area and d the center-to-center distance. For
// the in-plane diagonals the "face" is virtual: the same harmonic mean is
// used with the diagonal center distance and the weight from opts.
// Boundary faces get Υ = 0 (no-flow), so mass conservation Σ residual = 0
// holds globally.
func (m *Mesh) ComputeTransmissibilities(opts TransOptions) error {
	if opts.DiagonalWeight < 0 {
		return fmt.Errorf("mesh: diagonal weight must be non-negative, got %g", opts.DiagonalWeight)
	}
	for _, k := range m.Perm {
		if k < 0 || math.IsNaN(k) || math.IsInf(k, 0) {
			return fmt.Errorf("mesh: permeability must be finite and non-negative, got %g", k)
		}
	}
	dx, dy, dz := m.Spacing.Dx, m.Spacing.Dy, m.Spacing.Dz
	// Geometric prefactors A/d per direction.
	geom := [NumDirections]float64{}
	geom[West] = (dy * dz) / dx
	geom[East] = geom[West]
	geom[North] = (dx * dz) / dy
	geom[South] = geom[North]
	geom[Up] = (dx * dy) / dz
	geom[Down] = geom[Up]
	diagDist := math.Hypot(dx, dy)
	diagGeom := opts.DiagonalWeight * (math.Min(dx, dy) * dz) / diagDist
	for _, d := range DiagonalDirections {
		geom[d] = diagGeom
	}

	for dir := range m.Trans {
		for i := range m.Trans[dir] {
			m.Trans[dir][i] = 0
		}
	}
	for z := 0; z < m.Dims.Nz; z++ {
		for y := 0; y < m.Dims.Ny; y++ {
			for x := 0; x < m.Dims.Nx; x++ {
				k := m.Index(x, y, z)
				for _, d := range AllDirections {
					l, ok := m.Neighbor(x, y, z, d)
					if !ok {
						continue
					}
					if l < k {
						continue // each face assembled once from the lower-index side
					}
					t := geom[d] * harmonicMean(m.Perm[k], m.Perm[l])
					m.Trans[d][k] = t
					m.Trans[d.Opposite()][l] = t
				}
			}
		}
	}
	return nil
}

// harmonicMean returns 2ab/(a+b), with the zero-permeability limit handled
// (a sealing cell seals its faces).
func harmonicMean(a, b float64) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}
