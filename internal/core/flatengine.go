package core

import (
	"fmt"
	"time"

	"repro/internal/mesh"
	"repro/internal/physics"
)

// RunFlat executes the dataflow schedule serially: one peState per (x, y)
// column, the identical vector-op sequences, but neighbor columns are copied
// directly from neighbor PE memories instead of traveling as wavelets. It
// exists to run functional meshes far larger than goroutine-per-PE execution
// allows, and it is asserted bit-identical to RunFabric. It is the flat
// Engine with a single band: one worker runs every phase inline on the
// calling goroutine, with no barrier.
func RunFlat(m *mesh.Mesh, fl physics.Fluid, opts Options) (*Result, error) {
	opts.Workers = 1
	return runSharded("flat", m, fl, opts)
}

// RunFlatParallel executes the flat dataflow schedule on a sharded worker
// pool: the PE grid's rows are decomposed into opts.Workers contiguous bands
// and each band's load, exchange and local-application phases run as one
// shard of an exec.Pool, with a barrier between the perturbation and
// exchange phases of every application. The result is bit-identical to
// RunFlat for every worker count.
func RunFlatParallel(m *mesh.Mesh, fl physics.Fluid, opts Options) (*Result, error) {
	return runSharded("flat-parallel", m, fl, opts)
}

// runSharded is one whole run of the flat engine, reported under the given
// engine name: compile, load the mesh's pressure field, apply opts.Apps
// times, summarize. Elapsed is the application loop. The engine lives for
// the call only — nothing is cached across runs.
func runSharded(engine string, m *mesh.Mesh, fl physics.Fluid, opts Options) (*Result, error) {
	e, err := Compile(m, fl, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := e.LoadPressure(m.Pressure); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := e.Apply(e.opts.Apps); err != nil {
		return nil, err
	}
	return summarize(engine, e.states, e.dims, e.opts, time.Since(start)), nil
}

// flatExchange is the scalar ablation's and CommOnly's halo exchange: it
// copies the in-plane neighbor columns into s's receive buffers with the
// same FMOV accounting the fabric engine performs. No column is allocated:
// each is read off the neighbor's send column (wire), and the only copy is
// the counted FMOV receive itself.
func flatExchange(states []peState, s *peState) error {
	for i, d := range xyDirections {
		if !s.hasNbr[i] || !s.opts.Diagonals && d.IsDiagonal() {
			continue
		}
		if err := s.receiveColumn(i, s.wire(states, d)); err != nil {
			return fmt.Errorf("flat exchange: %w", err)
		}
	}
	return nil
}
