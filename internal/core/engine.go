package core

import (
	"errors"
	"fmt"
	"time"

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
// Residual reads the result back. RunFlatParallel is one Compile +
// LoadPressure + Apply; sim.DataflowOperator keeps an engine across the
// applications of a Krylov solve. Its one application is the vectorized
// kernel: the paper's comm-only and scalar builds run on RunFabric.
//
// The PE grid is decomposed into contiguous row bands, each executed as one
// shard of an exec.Pool (the shared shard-pool execution layer; the
// unstructured umesh.PartEngine runs on the same machinery). The phase
// structure makes the data sharing safe without per-PE locks:
//
//   - perturbation writes only the owning PE's pressure column;
//   - the application reads the neighbors' own pressure and gravity columns
//     (what their send columns would carry) and writes only the owning PE's
//     residual and counters.
//
// The only cross-shard conflict is therefore perturb's write against a
// neighboring shard's read, so each application runs as two barriered
// phases: perturb everywhere, then apply everywhere. Within a phase every
// touched word is either owned by the executing worker or only read, which
// is what `go test -race` verifies.
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

// errFabricOnly is Compile's answer to the options of the paper's modified
// builds, which only the fabric engine runs.
var errFabricOnly = errors.New("core: the flat engine runs only the vectorized kernel; the comm-only and scalar builds (CommOnly, Vectorized = false) run on RunFabric")

// Compile builds the flat engine for a mesh: opts.Workers row bands, each
// taking its own arena (sized to the peState columns it lays out; the slab of
// a closed engine when one of that size is still alive) and loading its PEs'
// static columns from the mesh, which is only read, not retained; then every
// PE's application is bound (bindCell) over the laid-out grid. opts.Apps is
// the count RunFlatParallel applies; Apply takes its own. CommOnly and
// Vectorized = false are errFabricOnly.
func Compile(m *mesh.Mesh, fl physics.Fluid, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := opts.validate(m, fl); err != nil {
		return nil, err
	}
	if opts.CommOnly || !opts.Vectorized {
		return nil, errFabricOnly
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
	e.apply = e.pool.NewPlan([]exec.Step{{Phase: e.perturb}, {Phase: e.applyBand}})
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
	for i := range e.states {
		e.states[i].bindCell(e.states)
	}
	return e, nil
}

// band returns the PE states of one shard's rows.
func (e *Engine) band(shard int) []peState {
	b := e.bands[shard]
	return e.states[b.y0*e.dims.Nx : b.y1*e.dims.Nx]
}

// layoutBand takes the PE memories of a band starting at grid row y0 and
// lays every PE out in its own. The memories come from one dsd arena and the
// engines from one slice, so a band's working set is cache-contiguous and
// costs a handful of allocations instead of several per PE.
func layoutBand(band []peState, d mesh.Dims, y0 int, flLin physics.Fluid, opts Options) error {
	mems, err := dsd.NewSizedArena(len(band), flatWordsPerZ*d.Nz+FixedWords)
	if err != nil {
		return err
	}
	engs := make([]dsd.Engine, len(band))
	for i := range band {
		engs[i].Mem = &mems[i]
		if err := band[i].layout(&engs[i], d, flLin, i%d.Nx, y0+i/d.Nx, opts); err != nil {
			return err
		}
	}
	return nil
}

// LoadPressure moves a mesh-layout pressure field onto the PEs (own columns
// and ghost cells) and restarts the application count:
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

// Apply runs n ≥ 0 applications of Algorithm 1, perturbing the pressure
// field in place before every one but the first since LoadPressure.
func (e *Engine) Apply(n int) error {
	if n < 0 {
		return fmt.Errorf("core: cannot run %d applications", n)
	}
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

// applyBand is phase 2: one applyCell per PE, halo exchange included.
// Neighbor columns are only read, so shards need no further synchronization
// within the phase.
func (e *Engine) applyBand(shard int) error {
	band := e.band(shard)
	for i := range band {
		band[i].applyCell()
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

// Close stops the engine's workers and hands each band's arena, whose first
// memory is its first PE's, back to dsd (Release). The engine must not be
// used afterwards; closing it again does nothing (Stop and Release are both
// idempotent).
func (e *Engine) Close() {
	e.pool.Stop()
	for _, b := range e.bands {
		if s := &e.states[b.y0*e.dims.Nx]; s.eng != nil { // nil: Compile failed first
			s.eng.Mem.Release()
		}
	}
}

// RunFlatParallel is one whole run of the flat engine: compile, load the
// mesh's pressure field, apply opts.Apps times, summarize. At Workers = 1
// the single band runs every phase inline on the calling goroutine; the
// result is bit-identical for every worker count and to RunFabric. Elapsed
// is the application loop. The engine lives for the call only.
func RunFlatParallel(m *mesh.Mesh, fl physics.Fluid, opts Options) (*Result, error) {
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
	return summarize(e.states, e.dims, e.opts, time.Since(start)), nil
}
