// Package refflux is the gold-standard host implementation of Algorithm 1
// (the FV flux computation): a cell-based sweep that, for every cell K and
// every neighbor L, evaluates densities (Eq. 5), the TPFA flux (Eq. 3), and
// accumulates the flux into K's residual.
//
// It exists to validate every other engine in the repository (the wafer-scale
// dataflow engines and the GPU-style kernels) and follows the same cell-based
// looping pattern the paper's reference GPU implementation uses (§6): each
// cell recomputes the fluxes of all its faces, so each interior face is
// evaluated twice (once per side) — antisymmetry then guarantees global mass
// conservation.
package refflux

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/mesh"
	"repro/internal/physics"
)

// FaceSet selects which neighbor set Algorithm 1 sweeps.
type FaceSet int

const (
	// FacesAll uses all ten neighbors (4 cardinal + 4 diagonal + 2 vertical),
	// matching the paper's implementation (§3: "we also compute four fluxes
	// between a cell and its diagonal neighbors").
	FacesAll FaceSet = iota
	// FacesCardinal uses the six TPFA neighbors only (no diagonals) — the
	// textbook scheme, used by the diagonal-exchange ablation.
	FacesCardinal
)

// String implements fmt.Stringer.
func (f FaceSet) String() string {
	switch f {
	case FacesAll:
		return "all-10"
	case FacesCardinal:
		return "cardinal-6"
	default:
		return fmt.Sprintf("FaceSet(%d)", int(f))
	}
}

// Directions returns the direction list for the face set.
func (f FaceSet) Directions() []mesh.Direction {
	switch f {
	case FacesCardinal:
		return []mesh.Direction{
			mesh.West, mesh.East, mesh.North, mesh.South, mesh.Down, mesh.Up,
		}
	default:
		ds := make([]mesh.Direction, 0, mesh.NumDirections)
		for _, d := range mesh.AllDirections {
			ds = append(ds, d)
		}
		return ds
	}
}

// Options configures a reference run.
type Options struct {
	Faces FaceSet
	// Workers sets the parallel fan-out of ComputeResidual; zero means
	// runtime.NumCPU().
	Workers int
}

// ComputeResidual runs one application of Algorithm 1 in float64, the outer
// sweep split over Z slabs across a fixed worker pool. The pressure input is
// the float32 device field (shared with the other engines) widened
// internally. The returned residual has one entry per cell; each is produced
// by exactly one worker, so no synchronization of the output is needed and
// the result does not depend on the worker count.
func ComputeResidual(m *mesh.Mesh, fl physics.Fluid, p []float32, opts Options) ([]float64, error) {
	if err := validate(m, fl, p); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > m.Dims.Nz {
		workers = m.Dims.Nz
	}
	res := make([]float64, m.Dims.Cells())
	dirs := opts.Faces.Directions()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		z0 := w * m.Dims.Nz / workers
		z1 := (w + 1) * m.Dims.Nz / workers
		wg.Add(1)
		go func(z0, z1 int) {
			defer wg.Done()
			for z := z0; z < z1; z++ {
				for y := 0; y < m.Dims.Ny; y++ {
					for x := 0; x < m.Dims.Nx; x++ {
						res[m.Index(x, y, z)] = cellResidual(m, fl, p, x, y, z, dirs)
					}
				}
			}
		}(z0, z1)
	}
	wg.Wait()
	return res, nil
}

// cellResidual is the inner loop of Algorithm 1 for one cell.
func cellResidual(m *mesh.Mesh, fl physics.Fluid, p []float32, x, y, z int, dirs []mesh.Direction) float64 {
	k := m.Index(x, y, z)
	pK := float64(p[k])
	zK := m.Elev[k]
	r := 0.0
	for _, d := range dirs {
		l, ok := m.Neighbor(x, y, z, d)
		if !ok {
			continue
		}
		t := m.Trans[d][k]
		if t == 0 {
			continue
		}
		r += fl.FaceFlux(t, pK, float64(p[l]), zK, m.Elev[l])
	}
	return r
}

// Run applies Algorithm 1 apps times, perturbing the pressure between
// applications with mesh.PerturbPressure32 (the shared deterministic update),
// and returns the final residual. The pressure slice is modified in place,
// exactly like the device-resident engines.
func Run(m *mesh.Mesh, fl physics.Fluid, p []float32, apps int, opts Options) ([]float64, error) {
	if apps <= 0 {
		return nil, fmt.Errorf("refflux: applications must be positive, got %d", apps)
	}
	var res []float64
	var err error
	for app := 0; app < apps; app++ {
		if app > 0 {
			mesh.PerturbPressure32(p, app, mesh.PerturbAmplitude)
		}
		res, err = ComputeResidual(m, fl, p, opts)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func validate(m *mesh.Mesh, fl physics.Fluid, p []float32) error {
	if err := fl.Validate(); err != nil {
		return err
	}
	if got, want := len(p), m.Dims.Cells(); got != want {
		return fmt.Errorf("refflux: pressure length %d does not match mesh cells %d", got, want)
	}
	return nil
}
