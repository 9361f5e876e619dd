package core

import (
	"time"

	"repro/internal/exec"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// This file is the sharded flat engine: the flat schedule decomposed into
// contiguous row bands of the PE grid, each executed as one shard of an
// exec.Pool (the shared shard-pool execution layer; the unstructured
// umesh.PartEngine runs on the same machinery). RunFlat is this engine with
// one band. The phase structure makes the data sharing safe without per-PE
// locks:
//
//   - perturbation writes only the owning PE's pressure column;
//   - halo exchange reads neighbor pressure/gravity columns and writes only
//     the owning PE's receive buffers and counters;
//   - the local application reads own and received columns and writes only
//     own flux/residual/scratch buffers and counters.
//
// The only cross-shard conflict is therefore perturb's write against a
// neighboring shard's halo read, so each application runs as two barriered
// phases: perturb everywhere, then exchange + compute everywhere. Within a
// phase every touched word is either owned by the executing worker or only
// read, which is what `go test -race` verifies.
//
// Each PE performs exactly the same op sequence on exactly the same input
// values whatever the decomposition, so residuals and counters are
// bit-identical for every worker count (and to RunFabric, the independent
// oracle).

// band is a contiguous range [y0, y1) of PE-grid rows owned by one shard.
type band struct {
	y0, y1 int
}

// partitionRows splits ny rows into at most parts contiguous bands whose
// sizes differ by at most one; fewer bands are returned when ny < parts.
func partitionRows(ny, parts int) []band {
	if parts < 1 {
		parts = 1
	}
	if parts > ny {
		parts = ny
	}
	bands := make([]band, 0, parts)
	base, extra := ny/parts, ny%parts
	y := 0
	for i := 0; i < parts; i++ {
		n := base
		if i < extra {
			n++
		}
		bands = append(bands, band{y0: y, y1: y + n})
		y += n
	}
	return bands
}

// RunFlatParallel executes the flat dataflow schedule on a sharded worker
// pool: the PE grid's rows are decomposed into opts.Workers contiguous bands
// and each band's setup, exchange and local-application phases run as one
// shard of an exec.Pool, with a barrier between the perturbation and
// exchange phases of every application. The result is bit-identical to
// RunFlat for every worker count.
func RunFlatParallel(m *mesh.Mesh, fl physics.Fluid, opts Options) (*Result, error) {
	return runSharded("flat-parallel", m, fl, opts)
}

// runSharded is the flat engine: setup, then per application a perturbation
// phase and an exchange + compute phase over the row bands, reported under
// the given engine name.
func runSharded(engine string, m *mesh.Mesh, fl physics.Fluid, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(m, fl); err != nil {
		return nil, err
	}
	flLin := fl.WithModel(physics.DensityLinear)
	nx, ny := m.Dims.Nx, m.Dims.Ny
	states := make([]peState, nx*ny)
	bands := partitionRows(ny, opts.Workers)
	pool := exec.NewPool(opts.Workers, len(bands))
	defer pool.Stop()

	// Sharded setup: each worker allocates its own band's arena and loads
	// its PEs from the mesh, which is only read.
	err := pool.Run(func(shard int) error {
		b := bands[shard]
		return newBandStates(states, m, flLin, b.y0, b.y1, opts)
	})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	for app := 0; app < opts.Apps; app++ {
		if app > 0 {
			// Phase 1: perturb every own pressure column. Must fully
			// complete before any shard reads a neighbor's column.
			if err := pool.Run(func(shard int) error {
				b := bands[shard]
				for i := b.y0 * nx; i < b.y1*nx; i++ {
					states[i].perturb(app)
				}
				return nil
			}); err != nil {
				return nil, err
			}
		}
		// Phase 2: halo exchange + local application. Exchange only reads
		// neighbor columns and the application never writes them, so shards
		// need no further synchronization within the phase.
		if err := pool.Run(func(shard int) error {
			b := bands[shard]
			for i := b.y0 * nx; i < b.y1*nx; i++ {
				s := &states[i]
				if err := flatExchange(states, s, nx); err != nil {
					return err
				}
				if opts.CommOnly {
					continue
				}
				s.runLocalApplication()
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	return summarize(engine, states, m, opts, elapsed), nil
}
