package core

import (
	"fmt"

	"repro/internal/dsd"
	"repro/internal/exec"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// This file is the flat engine in the paper's execution model (§3, §5.1): one
// host-to-device load, then many kernel applications on data that never
// leaves the PEs. Compile builds everything that depends only on the mesh
// and the options — the PE arena and layout, the gravity and transmissibility
// columns, the worker pool and its phase plans; LoadPressure then moves one
// pressure field onto the PEs, Apply runs applications of Algorithm 1, and
// Residual reads the result back. RunFlat and RunFlatParallel are one
// Compile + LoadPressure + Apply; solver.DataflowOperator keeps an engine
// across the applications of a Krylov solve.
//
// The PE grid is decomposed into contiguous row bands, each executed as one
// shard of an exec.Pool (the shared shard-pool execution layer; the
// unstructured umesh.PartEngine runs on the same machinery). The phase
// structure makes the data sharing safe without per-PE locks:
//
//   - perturbation writes only the owning PE's pressure column;
//   - halo exchange reads neighbor pressure/gravity columns and writes only
//     the owning PE's receive buffers and counters;
//   - the local application reads own and received columns and writes only
//     own residual (and, in the scalar ablation, flux) buffers and counters.
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

// Engine is a compiled flat engine: the PE states of one mesh under one set
// of options, resident until Close. It is driven by one goroutine; its
// counters accumulate over every application it has run.
type Engine struct {
	dims   mesh.Dims
	opts   Options
	states []peState
	bands  []band
	pool   *exec.Pool
	// The phase plans, compiled once so that the steady state allocates
	// nothing: LoadPressure's one phase, and an application's two with the
	// barrier between them (see the file comment).
	load, apply *exec.Plan
	// app is the index of the next application since LoadPressure — the
	// perturbation's phase. Written between plan executions only.
	app int
	// field is what the load plan's shards read, set for its duration.
	field []float64
}

// Compile builds the flat engine for a mesh: opts.Workers row bands, each
// worker allocating its own band's arena (sized to the layout's footprint,
// budgeted at opts.MemWords) and loading its PEs' static columns from the
// mesh, which is only read — and not retained: later changes to the mesh do
// not reach a compiled engine. opts.Apps is the count the Run* wrappers
// apply; Apply takes its own.
func Compile(m *mesh.Mesh, fl physics.Fluid, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := opts.validate(m, fl); err != nil {
		return nil, err
	}
	flLin := fl.WithModel(physics.DensityLinear)
	nx, ny := m.Dims.Nx, m.Dims.Ny
	e := &Engine{
		dims:   m.Dims,
		opts:   opts,
		states: make([]peState, nx*ny),
		bands:  partitionRows(ny, opts.Workers),
	}
	e.pool = exec.NewPool(opts.Workers, len(e.bands))
	e.load = e.pool.NewPlan([]exec.Step{{Phase: e.loadShard}})
	e.apply = e.pool.NewPlan([]exec.Step{{Phase: e.perturb}, {Phase: e.exchangeCompute}})
	err := e.pool.Run(func(shard int) error {
		band := e.band(shard)
		if err := layoutBand(band, m.Dims, e.bands[shard].y0, flLin, opts); err != nil {
			return err
		}
		loadStatic(band, m, flLin, opts)
		return nil
	})
	if err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// band returns the PE states of one shard's rows.
func (e *Engine) band(shard int) []peState {
	b := e.bands[shard]
	return e.states[b.y0*e.dims.Nx : b.y1*e.dims.Nx]
}

// layoutBand allocates the PE memories of a band starting at grid row y0 and
// lays every PE out in its own. The memories come from one dsd arena and the
// engines and send columns from one slice each, so a band's working set is
// cache-contiguous and costs a handful of allocations instead of several per
// PE.
func layoutBand(band []peState, d mesh.Dims, y0 int, flLin physics.Fluid, opts Options) error {
	footprint := WordsPerZ(opts.BufferReuse)*d.Nz + FixedWords
	mems, err := dsd.NewSizedArena(len(band), opts.MemWords, footprint)
	if err != nil {
		return err
	}
	engs := make([]dsd.Engine, len(band))
	send := make([]float32, len(band)*2*d.Nz)
	for i := range band {
		engs[i].Mem = &mems[i]
		err := band[i].layout(&engs[i], d, flLin, i%d.Nx, y0+i/d.Nx, opts, send[i*2*d.Nz:(i+1)*2*d.Nz])
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadPressure moves a mesh-layout pressure field onto the PEs (own columns,
// ghost cells, missing-neighbor mirrors) and restarts the application count:
// the next Apply starts from exactly the state a fresh engine compiled on a
// mesh holding p would.
func (e *Engine) LoadPressure(p []float64) error {
	if len(p) != e.dims.Cells() {
		return fmt.Errorf("core: pressure field has %d cells, mesh %v has %d", len(p), e.dims, e.dims.Cells())
	}
	e.field = p
	_, err := e.load.Execute()
	e.field = nil
	e.app = 0
	return err
}

func (e *Engine) loadShard(shard int) error {
	loadPressure(e.band(shard), e.field)
	return nil
}

// Apply runs n applications of Algorithm 1. The pressure field is perturbed
// in place before every application but the first since LoadPressure.
func (e *Engine) Apply(n int) error {
	for ; n > 0; n-- {
		if _, err := e.apply.Execute(); err != nil {
			return err
		}
		e.app++
	}
	return nil
}

// perturb is phase 1: perturb every own pressure column, except before the
// first application on freshly loaded pressures. It must fully complete
// before any shard reads a neighbor's column.
func (e *Engine) perturb(shard int) error {
	if e.app == 0 {
		return nil
	}
	band := e.band(shard)
	for i := range band {
		band[i].perturb(e.app)
	}
	return nil
}

// exchangeCompute is phase 2: halo exchange + local application. Exchange
// only reads neighbor columns and the application never writes them, so
// shards need no further synchronization within the phase.
func (e *Engine) exchangeCompute(shard int) error {
	band := e.band(shard)
	for i := range band {
		s := &band[i]
		if err := flatExchange(e.states, s, e.dims.Nx); err != nil {
			return err
		}
		if !e.opts.CommOnly {
			s.runLocalApplication()
		}
	}
	return nil
}

// Residual copies the flux residual of the last application into dst, in
// mesh layout (X innermost).
func (e *Engine) Residual(dst []float32) error {
	if len(dst) != e.dims.Cells() {
		return fmt.Errorf("core: residual buffer has %d cells, mesh %v has %d", len(dst), e.dims, e.dims.Cells())
	}
	storeField(e.states, dst, (*peState).residual)
	return nil
}

// Close stops the engine's workers. The engine must not be used afterwards.
func (e *Engine) Close() { e.pool.Stop() }
