package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/umesh"
)

// DataflowOperator evaluates the flux part of A·x through the paper's own
// dataflow kernel (§8's matrix-free operator): with compressibility and
// gravity zeroed the kernel's residual is exactly Σ Υ·(ρref/μ)·(x_L − x_K),
// linear in x. It owns a compiled core.Engine — the paper's execution model:
// the static data loaded once, then one kernel application per Apply on PEs
// that stay resident — and adds the system's accumulation diagonal on the
// host. The system (umesh.FromStructured of Mesh) supplies the accumulation
// and the frozen mobility; the structured mesh is what the engine is compiled
// from. It never writes the mesh.
type DataflowOperator struct {
	Mesh *mesh.Mesh
	Sys  *umesh.USystem
	// UseFabric selects the goroutine-per-PE engine, the independent oracle:
	// one whole RunFabric per Apply. Default is the resident flat engine
	// (bit-identical, and several times faster per application).
	UseFabric bool
	// Workers > 1 runs the flat engine on that many row bands
	// (bit-identical; ignored when UseFabric is set). The first Apply
	// compiles the engine, so set it before then.
	Workers int

	faces refflux.FaceSet
	fluid physics.Fluid
	// Applications counts engine applications (each one is an operator
	// application on the wafer — the "1000 applications" pattern of §3).
	Applications int

	eng *core.Engine // compiled by the first Apply, from the mesh as it is then
	res []float32    // the kernel's residual, mesh layout
}

// NewDataflowOperator builds the matrix-free operator for the system of a
// structured mesh converted with the given face set.
func NewDataflowOperator(m *mesh.Mesh, sys *umesh.USystem, fl physics.Fluid, faces refflux.FaceSet) *DataflowOperator {
	lin := fl.WithModel(physics.DensityLinear)
	lin.Compressibility = 0 // density constant ⇒ kernel is linear in p
	lin.Gravity = 0         // no affine offset
	return &DataflowOperator{Mesh: m, Sys: sys, faces: faces, fluid: lin}
}

// Size implements solver.Operator.
func (d *DataflowOperator) Size() int { return d.Mesh.Dims.Cells() }

// options returns the engine options of one application. The kernel scales
// fluxes by λ = ρref/μ; the operator's fluid makes that the frozen mobility
// (see Verify).
func (d *DataflowOperator) options() core.Options {
	opts := core.DefaultOptions(1)
	opts.Diagonals = d.faces == refflux.FacesAll
	opts.Workers = max(1, d.Workers)
	return opts
}

// Apply computes dst = A·x with one dataflow-engine application. In the
// steady state (flat engine, Workers ≤ 1) it allocates nothing.
func (d *DataflowOperator) Apply(dst, x []float64) error {
	if len(dst) != len(x) || len(x) != d.Size() {
		return fmt.Errorf("sim: dataflow operator size mismatch")
	}
	if err := d.residual(x); err != nil {
		return fmt.Errorf("sim: dataflow apply: %w", err)
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
		// Pressure is x, so the mesh is only read.
		view := *d.Mesh
		view.Pressure = x
		res, err := core.RunFabric(&view, d.fluid, d.options())
		if err == nil {
			d.res = res.Residual
		}
		return err
	}
	if d.eng == nil {
		eng, err := core.Compile(d.Mesh, d.fluid, d.options())
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

// Verify checks that the system belongs to the mesh and the frozen-mobility
// alignment: the operator's fluid must reproduce the system's λ.
func (d *DataflowOperator) Verify() error {
	if n := d.Mesh.Dims.Cells(); len(d.Sys.Accum) != n {
		return fmt.Errorf("sim: system covers %d cells, mesh has %d", len(d.Sys.Accum), n)
	}
	lam := d.fluid.RhoRef / d.fluid.Viscosity
	if math.Abs(lam-d.Sys.Mobility)/d.Sys.Mobility > 1e-12 {
		return fmt.Errorf("sim: operator mobility %g != system mobility %g", lam, d.Sys.Mobility)
	}
	return nil
}
