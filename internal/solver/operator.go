package solver

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
)

// PressureSystem is one backward-Euler step of the paper's Eq. (2) for
// slightly compressible single-phase flow, linearized around the current
// state with frozen face mobility λ:
//
//	(V·φ·ρref·cf/Δt)·δp_K − Σ_L Υ_KL·λ·(δp_L − δp_K) = b_K
//
// The diagonal accumulation term makes the matrix strictly SPD.
type PressureSystem struct {
	Mesh *mesh.Mesh
	// Mobility is the frozen face mobility λ (ρref/μ of the fluid state).
	Mobility float64
	// Accum is the per-cell accumulation coefficient V·φ·ρref·cf/Δt.
	Accum []float64
	// Faces selects the stencil (with or without diagonals).
	Faces refflux.FaceSet
}

// NewPressureSystem freezes the coefficients of a backward-Euler step of
// length dt around the fluid's reference state.
func NewPressureSystem(m *mesh.Mesh, fl physics.Fluid, dt float64, faces refflux.FaceSet) (*PressureSystem, error) {
	if err := fl.Validate(); err != nil {
		return nil, err
	}
	if dt <= 0 {
		return nil, fmt.Errorf("solver: time step must be positive, got %g", dt)
	}
	v := m.Spacing.Dx * m.Spacing.Dy * m.Spacing.Dz
	acc := make([]float64, m.Dims.Cells())
	for i := range acc {
		acc[i] = v * m.Porosity[i] * fl.RhoRef * fl.Compressibility / dt
		if acc[i] <= 0 {
			return nil, fmt.Errorf("solver: non-positive accumulation at cell %d (porosity %g, cf %g)",
				i, m.Porosity[i], fl.Compressibility)
		}
	}
	return &PressureSystem{
		Mesh:     m,
		Mobility: fl.RhoRef / fl.Viscosity,
		Accum:    acc,
		Faces:    faces,
	}, nil
}

// Diagonal returns the matrix diagonal (for the Jacobi preconditioner):
// accumulation plus the sum of the cell's face conductances.
func (ps *PressureSystem) Diagonal() []float64 {
	d := make([]float64, ps.Mesh.Dims.Cells())
	dirs := ps.Faces.Directions()
	for z := 0; z < ps.Mesh.Dims.Nz; z++ {
		for y := 0; y < ps.Mesh.Dims.Ny; y++ {
			for x := 0; x < ps.Mesh.Dims.Nx; x++ {
				k := ps.Mesh.Index(x, y, z)
				sum := ps.Accum[k]
				for _, dir := range dirs {
					if _, ok := ps.Mesh.Neighbor(x, y, z, dir); ok {
						sum += ps.Mesh.Trans[dir][k] * ps.Mobility
					}
				}
				d[k] = sum
			}
		}
	}
	return d
}

// HostOperator applies the system directly from the mesh in float64.
type HostOperator struct {
	Sys *PressureSystem
}

// Size implements Operator.
func (h *HostOperator) Size() int { return h.Sys.Mesh.Dims.Cells() }

// Apply computes dst = A·x.
func (h *HostOperator) Apply(dst, x []float64) error {
	m := h.Sys.Mesh
	if len(dst) != len(x) || len(x) != m.Dims.Cells() {
		return fmt.Errorf("solver: host operator size mismatch")
	}
	dirs := h.Sys.Faces.Directions()
	lam := h.Sys.Mobility
	for zi := 0; zi < m.Dims.Nz; zi++ {
		for yi := 0; yi < m.Dims.Ny; yi++ {
			for xi := 0; xi < m.Dims.Nx; xi++ {
				k := m.Index(xi, yi, zi)
				acc := h.Sys.Accum[k] * x[k]
				flux := 0.0
				for _, dir := range dirs {
					l, ok := m.Neighbor(xi, yi, zi, dir)
					if !ok {
						continue
					}
					flux += m.Trans[dir][k] * lam * (x[l] - x[k])
				}
				dst[k] = acc - flux
			}
		}
	}
	return nil
}

// DataflowOperator evaluates the flux part of A·x through the paper's own
// dataflow kernel (§8's matrix-free operator): with compressibility and
// gravity zeroed the kernel's residual is exactly Σ Υ·(ρref/μ)·(x_L − x_K),
// linear in x. It owns a compiled core.Engine — the paper's execution model:
// the static data loaded once, then one kernel application per Apply on PEs
// that stay resident — and adds the accumulation diagonal on the host. It
// never writes the system's mesh.
type DataflowOperator struct {
	Sys *PressureSystem
	// UseFabric selects the goroutine-per-PE engine, the independent oracle:
	// one whole RunFabric per Apply. Default is the resident flat engine
	// (bit-identical, and several times faster per application).
	UseFabric bool
	// Workers > 1 runs the flat engine on that many row bands
	// (bit-identical; ignored when UseFabric is set). The first Apply
	// compiles the engine, so set it before then.
	Workers int

	fluid physics.Fluid
	// Applications counts engine applications (each one is an operator
	// application on the wafer — the "1000 applications" pattern of §3).
	Applications int

	eng *core.Engine // compiled by the first Apply, from the mesh as it is then
	res []float32    // the kernel's residual, mesh layout
}

// NewDataflowOperator builds the matrix-free operator for a system.
func NewDataflowOperator(sys *PressureSystem, fl physics.Fluid) *DataflowOperator {
	lin := fl.WithModel(physics.DensityLinear)
	lin.Compressibility = 0 // density constant ⇒ kernel is linear in p
	lin.Gravity = 0         // no affine offset
	return &DataflowOperator{Sys: sys, fluid: lin}
}

// Size implements Operator.
func (d *DataflowOperator) Size() int { return d.Sys.Mesh.Dims.Cells() }

// options returns the engine options of one application. The kernel scales
// fluxes by λ = ρref/μ; the operator's fluid makes that the frozen mobility
// (see Verify).
func (d *DataflowOperator) options() core.Options {
	opts := core.DefaultOptions(1)
	opts.Diagonals = d.Sys.Faces == refflux.FacesAll
	opts.Workers = max(1, d.Workers)
	return opts
}

// Apply computes dst = A·x with one dataflow-engine application. In the
// steady state (flat engine, Workers ≤ 1) it allocates nothing.
func (d *DataflowOperator) Apply(dst, x []float64) error {
	if len(dst) != len(x) || len(x) != d.Size() {
		return fmt.Errorf("solver: dataflow operator size mismatch")
	}
	if err := d.residual(x); err != nil {
		return fmt.Errorf("solver: dataflow apply: %w", err)
	}
	d.Applications++
	for i := range dst {
		// Engine residual is +Σ T·λ·(x_L − x_K); the operator needs
		// accumulation − flux.
		dst[i] = d.Sys.Accum[i]*x[i] - float64(d.res[i])
	}
	return nil
}

// residual leaves the kernel's residual for pressures x in d.res.
func (d *DataflowOperator) residual(x []float64) error {
	if d.UseFabric {
		// The oracle takes its pressures from a mesh: a shallow copy whose
		// Pressure is x, so the system's mesh is only read.
		view := *d.Sys.Mesh
		view.Pressure = x
		res, err := core.RunFabric(&view, d.fluid, d.options())
		if err == nil {
			d.res = res.Residual
		}
		return err
	}
	if d.eng == nil {
		eng, err := core.Compile(d.Sys.Mesh, d.fluid, d.options())
		if err != nil {
			return err
		}
		d.eng, d.res = eng, make([]float32, len(x))
	}
	if err := d.eng.LoadPressure(x); err != nil {
		return err
	}
	if err := d.eng.Apply(1); err != nil {
		return err
	}
	return d.eng.Residual(d.res)
}

// Close releases the compiled engine and its workers. The operator stays
// usable: the next Apply compiles a fresh one.
func (d *DataflowOperator) Close() {
	if d.eng != nil {
		d.eng.Close()
		d.eng = nil
	}
}

// Verify checks the frozen-mobility alignment: the operator's fluid must
// reproduce the system's λ.
func (d *DataflowOperator) Verify() error {
	lam := d.fluid.RhoRef / d.fluid.Viscosity
	if math.Abs(lam-d.Sys.Mobility)/d.Sys.Mobility > 1e-12 {
		return fmt.Errorf("solver: operator mobility %g != system mobility %g", lam, d.Sys.Mobility)
	}
	return nil
}

// WellSource builds a right-hand side with a unit injection at (wx, wy)
// distributed over the column, balanced by an equal production at the
// opposite corner region so the system stays compatible and well-posed.
func WellSource(m *mesh.Mesh, wx, wy int, rate float64) ([]float64, error) {
	if wx < 0 || wx >= m.Dims.Nx || wy < 0 || wy >= m.Dims.Ny {
		return nil, fmt.Errorf("solver: well (%d,%d) outside %v", wx, wy, m.Dims)
	}
	b := make([]float64, m.Dims.Cells())
	px, py := m.Dims.Nx-1-wx, m.Dims.Ny-1-wy
	per := rate / float64(m.Dims.Nz)
	for z := 0; z < m.Dims.Nz; z++ {
		b[m.Index(wx, wy, z)] += per
		b[m.Index(px, py, z)] -= per
	}
	return b, nil
}
