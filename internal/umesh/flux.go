package umesh

import (
	"fmt"

	"repro/internal/physics"
)

// ComputeResidualCellBased evaluates Algorithm 1 with the paper's cell-based
// sweep (outer loop over cells, inner loop over neighbors — each face
// evaluated from both sides). It must agree with the face-based sweep to
// rounding; tests enforce it.
func ComputeResidualCellBased(u *Mesh, fl physics.Fluid, p []float32) ([]float64, error) {
	if err := check(u, fl, p); err != nil {
		return nil, err
	}
	res := make([]float64, u.NumCells)
	for c := 0; c < u.NumCells; c++ {
		nbrs, trans := u.halfFaces(c)
		pc := float64(p[c])
		zc := u.Elev[c]
		sum := 0.0
		for i, nb := range nbrs {
			sum += fl.FaceFlux(trans[i], pc, float64(p[nb]), zc, u.Elev[nb])
		}
		res[c] = sum
	}
	return res, nil
}

func check(u *Mesh, fl physics.Fluid, p []float32) error {
	if err := u.Validate(); err != nil {
		return err
	}
	if err := fl.Validate(); err != nil {
		return err
	}
	if len(p) != u.NumCells {
		return fmt.Errorf("umesh: pressure length %d != cells %d", len(p), u.NumCells)
	}
	return nil
}
