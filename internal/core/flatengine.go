package core

import (
	"fmt"

	"repro/internal/dsd"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// RunFlat executes the dataflow schedule serially: one peState per (x, y)
// column, the identical vector-op sequences, but neighbor columns are copied
// directly from neighbor PE memories instead of traveling as wavelets. It
// exists to run functional meshes far larger than goroutine-per-PE execution
// allows, and it is asserted bit-identical to RunFabric. It is the sharded
// engine with a single band: one worker runs every phase inline on the
// calling goroutine, with no barrier.
func RunFlat(m *mesh.Mesh, fl physics.Fluid, opts Options) (*Result, error) {
	opts.Workers = 1
	return runSharded("flat", m, fl, opts)
}

// newBandStates allocates and loads the PE states of grid rows [y0, y1) —
// the setup step of one shard of the flat engines (the fluid must already
// carry the linearized density model). The band's PE memories come from one
// dsd arena and its engines and send columns from one slice each, so a
// band's working set is cache-contiguous and its setup costs a handful of
// allocations instead of several per PE; in the sharded engine each worker
// allocates its own band.
func newBandStates(states []peState, m *mesh.Mesh, flLin physics.Fluid, y0, y1 int, opts Options) error {
	nx, nz := m.Dims.Nx, m.Dims.Nz
	band := states[y0*nx : y1*nx]
	mems, err := dsd.NewArena(len(band), opts.MemWords)
	if err != nil {
		return err
	}
	engs := make([]dsd.Engine, len(band))
	send := make([]float32, len(band)*2*nz)
	stage := make([]float32, nz)
	for i := range band {
		engs[i].Mem = &mems[i]
		err := band[i].setup(&engs[i], m, flLin, i%nx, y0+i/nx, opts, send[i*2*nz:(i+1)*2*nz], stage)
		if err != nil {
			return err
		}
	}
	return nil
}

// flatExchange copies the eight in-plane neighbor columns into s's receive
// buffers with the same FMOV accounting the fabric engine performs. Diagonal
// columns are taken from the corner PE directly — the values the clockwise
// relay would deliver. Each neighbor's persistent send buffer is read in
// place: the exchange allocates nothing and the only copy is the counted
// FMOV receive itself.
func flatExchange(states []peState, s *peState, nx int) error {
	for i, d := range xyDirections {
		if !s.hasNbr[i] {
			continue
		}
		if !s.opts.Diagonals && d.IsDiagonal() {
			continue
		}
		dx, dy, _ := d.Offset()
		n := &states[(s.y+dy)*nx+(s.x+dx)]
		if err := s.receiveColumn(i, n.ownColumn()); err != nil {
			return fmt.Errorf("flat exchange: %w", err)
		}
	}
	return nil
}
