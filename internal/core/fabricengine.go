package core

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// originDir maps an exchange origin to the mesh direction whose neighbor
// buffers and face group its column fills.
var originDir = [fabric.NumOrigins]mesh.Direction{
	fabric.FromNorth: mesh.North, fabric.FromEast: mesh.East,
	fabric.FromSouth: mesh.South, fabric.FromWest: mesh.West,
	fabric.FromNorthWest: mesh.NorthWest, fabric.FromNorthEast: mesh.NorthEast,
	fabric.FromSouthEast: mesh.SouthEast, fabric.FromSouthWest: mesh.SouthWest,
}

// RunFabric executes the dataflow TPFA on the goroutine-per-PE wavelet
// fabric — the functional twin of the paper's CSL implementation.
func RunFabric(m *mesh.Mesh, fl physics.Fluid, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(m, fl); err != nil {
		return nil, err
	}
	nx, ny, nz := m.Dims.Nx, m.Dims.Ny, m.Dims.Nz
	fab, err := fabric.New(fabric.Config{Width: nx, Height: ny, MemWords: opts.MemWords})
	if err != nil {
		return nil, err
	}

	flLin := fl.WithModel(physics.DensityLinear)
	states := make([]peState, nx*ny)
	send := make([]float32, len(states)*2*nz)
	err = fab.ForEachPE(func(pe *fabric.PE) error {
		if err := fabric.InstallExchange(pe, exchangeColor, opts.Diagonals); err != nil {
			return err
		}
		i := pe.Y*nx + pe.X
		return states[i].layout(pe.Eng, m.Dims, flLin, pe.X, pe.Y, opts, send[i*2*nz:(i+1)*2*nz])
	})
	if err != nil {
		return nil, err
	}
	// Host load: the whole grid is one band of the flat engine's loaders.
	loadStatic(states, m, flLin, opts)
	loadPressure(states, m.Pressure)

	start := time.Now()
	err = fab.Run(func(pe *fabric.PE) error {
		return fluxWorker(pe, &states[pe.Y*nx+pe.X], opts)
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}

	res := summarize("fabric", states, m.Dims, opts, elapsed)
	tot := fab.Totals()
	res.FabricTotals = &tot
	if tot.DroppedAtStop != 0 {
		return nil, fmt.Errorf("core: %d wavelets left unread at the end of the run — protocol error", tot.DroppedAtStop)
	}
	return res, nil
}

// fluxWorker is the per-PE program: for every application it perturbs its
// column, sends it into the §5.2 exchange (fabric/exchange.go), computes the
// vertical faces while data is in flight (§5.3.2 overlap), then stores each
// neighbor column as the exchange completes it and evaluates that face's
// fluxes immediately, and finally assembles the residual. Columns complete in
// arrival order; every face writes its own fbuf[d] and assemble adds them in
// assemblyOrder, so the residual does not depend on it.
func fluxWorker(pe *fabric.PE, s *peState, opts Options) error {
	ex := fabric.NewExchange(pe, exchangeColor, 2*s.nz, opts.Diagonals)
	deliver := func(o fabric.Origin, data []float32) error {
		d := originDir[o]
		if err := s.receiveColumn(int(d), data); err != nil {
			return err
		}
		if !opts.CommOnly {
			s.computeFace(d)
		}
		return nil
	}
	for app := 0; app < opts.Apps; app++ {
		if app > 0 {
			s.perturb(app)
		}
		if !opts.CommOnly {
			s.eng.Fill(s.res, 0)
		}
		ex.Send(s.ownColumn())
		if !opts.CommOnly {
			s.computeVerticalFaces() // overlapped with communication
		}
		if err := ex.Collect(deliver); err != nil {
			return fmt.Errorf("core: app %d: %w", app, err)
		}
		if !opts.CommOnly {
			// Fabric-edge faces have no incoming column; their Υ = 0 face
			// groups are still evaluated (uniform kernel code on every PE),
			// exactly like the flat engine, yielding zero flux.
			for i, d := range xyDirections {
				if s.hasNbr[i] {
					continue
				}
				if !opts.Diagonals && d.IsDiagonal() {
					continue
				}
				s.computeFace(d)
			}
			s.assemble()
		}
	}
	return nil
}
