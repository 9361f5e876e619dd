package umesh

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// This file is the persistent partitioned residual engine: Algorithm 1 in
// float32 pressures on a compiled Layout (layout.go), run on the shared
// phase-program execution layer (internal/exec) — the same runtime the
// structured core.Engine runs on. The engine adds to the layout its resident
// fields (pressure over owned + halo cells, elevation, the owned residual)
// and one precompiled application plan, emitted through the planBuilder the
// Krylov programs use: [perturb (applications after the first) + halo push,
// residual sweep] — one exec.Plan dispatch per application, not one pool
// round-trip per phase, and one step when no part exchanges halo data — with
// communication counters (halo words, messages, barriers, dispatches)
// mirroring the word-level accounting the structured engines keep.
//
// The residual stays bit-identical to the serial cell-based sweep: every
// owned cell accumulates its faces in exactly the adjacency order of
// ComputeResidualCellBased, on exactly the same float32 pressure values.

// EngineOptions configures a PartEngine.
type EngineOptions struct {
	// Apps is the number of applications of Algorithm 1 per Run (default 1).
	// The pressure field is perturbed between applications with the shared
	// schedule (mesh.PerturbPressure32 at mesh.PerturbAmplitude).
	Apps int
	// Workers sizes the exec.Pool worker set; 0 selects runtime.NumCPU().
	// The pool clamps it to the part count.
	Workers int
}

// CommCounters is the engine's communication and synchronization accounting,
// the unstructured mirror of the structured engines' fabric-word counting.
type CommCounters struct {
	// HaloWords is the 32-bit words moved between parts (float64 payloads
	// count as two words each).
	HaloWords uint64
	// Messages is the discrete part-to-part transfers (one per (src, dst)
	// neighbor pair per exchange — the coalesced direct-write regions).
	Messages uint64
	// Barriers is the pool barrier crossings the work performed (one per
	// executed plan step when workers > 1; 0 with one worker, where plans
	// run inline with no synchronization).
	Barriers uint64
	// Dispatches is the orchestrator plan dispatches (one per executed
	// plan, however many steps it carries).
	Dispatches uint64
}

// PartResult is the outcome of one PartEngine.Run.
type PartResult struct {
	// Engine names the executing engine: "umesh-part".
	Engine string
	// NumCells, NumParts, Apps and Workers echo the run configuration
	// (Workers after pool clamping).
	NumCells, NumParts, Apps, Workers int
	// Residual is the final application's residual in global cell order.
	Residual []float64
	// Comm is the total communication and synchronization over the run.
	Comm CommCounters
	// Elapsed is the host wall-clock of the application loop (setup, load
	// and gather excluded, matching core.Result.Elapsed).
	Elapsed time.Duration
}

// CellsUpdated returns total cell updates performed (cells × applications).
func (r *PartResult) CellsUpdated() uint64 {
	return uint64(r.NumCells) * uint64(r.Apps)
}

// HostThroughput returns host cell updates per second.
func (r *PartResult) HostThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.CellsUpdated()) / r.Elapsed.Seconds()
}

// enginePart is the engine's resident state of one part, in the layout's
// compact numbering: O(owned+halo) words, never O(NumCells).
type enginePart struct {
	pres []float32 // owned + halo
	elev []float64 // owned + halo
	res  []float64 // owned cells only
	comm CommCounters
}

// PartEngine is the persistent partitioned unstructured engine. Construct it
// once per (mesh, partition, fluid); Run executes a multi-application batch;
// Close stops the worker pool. An engine is driven by one goroutine.
type PartEngine struct {
	l     *Layout
	fl    physics.Fluid
	apps  int
	parts []*enginePart

	// plan is the precompiled application: the perturb+push step, then —
	// only when the layout exchanges halo data, else in the same step — the
	// residual sweep.
	plan *exec.Plan
	app  int // current application, set before each plan dispatch
}

// NewPartEngine compiles the partition into a Layout, allocates the resident
// fields on it and precompiles the application plan.
func NewPartEngine(u *Mesh, p *Partition, fl physics.Fluid, opts EngineOptions) (*PartEngine, error) {
	if err := fl.Validate(); err != nil {
		return nil, err
	}
	if opts.Apps == 0 {
		opts.Apps = 1
	}
	if opts.Apps < 1 {
		return nil, fmt.Errorf("umesh: applications must be positive, got %d", opts.Apps)
	}
	l, err := CompileLayout(u, p, opts.Workers)
	if err != nil {
		return nil, err
	}
	e := &PartEngine{l: l, fl: fl, apps: opts.Apps, parts: make([]*enginePart, len(l.parts))}
	for me, ps := range l.parts {
		ep := &enginePart{
			pres: make([]float32, len(ps.globalOf)),
			elev: make([]float64, len(ps.globalOf)),
			res:  make([]float64, ps.nOwned),
		}
		for i, g := range ps.globalOf {
			ep.elev[i] = u.Elev[g]
		}
		e.parts[me] = ep
	}
	var b planBuilder
	if l.exchanges {
		b.add(func(shard int) error { e.perturbPush(shard); return nil }, nil)
		b.add(e.phaseSweep, nil)
	} else {
		b.add(func(shard int) error { e.perturbPush(shard); return e.phaseSweep(shard) }, nil)
	}
	e.plan = l.pool.NewPlan(b.steps)
	return e, nil
}

// Close stops the worker pool. The engine must not be used after.
func (e *PartEngine) Close() { e.l.Close() }

// Run loads the global pressure field into the parts, executes the engine's
// Apps applications of Algorithm 1 and returns the final application's
// residual in global cell order. The input slice is not mutated; Run may be
// called repeatedly (each call restarts from the given field).
func (e *PartEngine) Run(pres []float32) (*PartResult, error) {
	u, pool := e.l.u, e.l.pool
	if len(pres) != u.NumCells {
		return nil, fmt.Errorf("umesh: pressure length %d != cells %d", len(pres), u.NumCells)
	}
	b0, d0 := pool.Counters()
	if err := pool.Run(func(shard int) error {
		ps, ep := e.l.parts[shard], e.parts[shard]
		for i, g := range ps.globalOf[:ps.nOwned] {
			ep.pres[i] = pres[g]
		}
		ep.comm = CommCounters{}
		return nil
	}); err != nil {
		return nil, err
	}

	start := time.Now()
	for app := 0; app < e.apps; app++ {
		if err := e.step(app); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	res := &PartResult{
		Engine:   "umesh-part",
		NumCells: u.NumCells,
		NumParts: len(e.parts),
		Apps:     e.apps,
		Workers:  pool.Workers(),
		Residual: make([]float64, u.NumCells),
		Elapsed:  elapsed,
	}
	if err := pool.Run(func(shard int) error {
		ps, ep := e.l.parts[shard], e.parts[shard]
		for i, g := range ps.globalOf[:ps.nOwned] {
			res.Residual[g] = ep.res[i]
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Deterministic reduction: fold per-part counters in part order, the
	// same discipline core.summarize applies to per-PE counters; the pool's
	// synchronization counts are reported as this Run's delta.
	for _, ep := range e.parts {
		res.Comm.HaloWords += ep.comm.HaloWords
		res.Comm.Messages += ep.comm.Messages
	}
	b1, d1 := pool.Counters()
	res.Comm.Barriers = b1 - b0
	res.Comm.Dispatches = d1 - d0
	return res, nil
}

// step executes application app as one plan dispatch.
func (e *PartEngine) step(app int) error {
	e.app = app
	_, err := e.plan.Execute()
	return err
}

// perturbPush is the first step of an application. After the first
// application it perturbs the part's owned cells with the shared schedule —
// guarded by app > 0 exactly as core.Engine.perturb is; the perturbation
// touches only cells no other part reads or writes during this step, so it
// needs no barrier of its own, and the halo copies are refreshed by the push
// that follows, so the global field evolves exactly as the serial sweep's
// does. Then it pushes the halo values into the neighbors' resident fields.
// The steady-state path allocates nothing.
func (e *PartEngine) perturbPush(shard int) {
	ps, ep := e.l.parts[shard], e.parts[shard]
	if e.app > 0 {
		for i, g := range ps.globalOf[:ps.nOwned] {
			ep.pres[i] += mesh.PerturbDelta32(e.app, int(g), mesh.PerturbAmplitude)
		}
	}
	values, messages := pushHalo(ps.sends, ep.pres, func(part int) []float32 { return e.parts[part].pres })
	ep.comm.HaloWords += values
	ep.comm.Messages += messages
}

// phaseSweep evaluates every owned row, once the step barrier has ordered
// every neighbor's halo write into this part's resident field, in the serial
// sweep's per-cell accumulation order.
func (e *PartEngine) phaseSweep(shard int) error {
	fl, ps, ep := e.fl, e.l.parts[shard], e.parts[shard]
	for i := range ep.res {
		pc := float64(ep.pres[i])
		zc := ep.elev[i]
		sum := 0.0
		for j := ps.rowStart[i]; j < ps.rowStart[i+1]; j++ {
			nb := ps.nbrLocal[j]
			sum += fl.FaceFlux(ps.nbrTrans[j], pc, float64(ep.pres[nb]), zc, ep.elev[nb])
		}
		ep.res[i] = sum
	}
	return nil
}

// RunCellBasedApps executes the serial cell-based sweep through the shared
// multi-application schedule — the reference the partitioned engine must
// match bit-for-bit. The input slice is not mutated; the returned residual
// is the final application's.
func RunCellBasedApps(u *Mesh, fl physics.Fluid, p []float32, apps int) ([]float64, error) {
	if apps < 1 {
		return nil, fmt.Errorf("umesh: applications must be positive, got %d", apps)
	}
	field := append([]float32(nil), p...)
	var res []float64
	var err error
	for app := 0; app < apps; app++ {
		if app > 0 {
			mesh.PerturbPressure32(field, app, mesh.PerturbAmplitude)
		}
		res, err = ComputeResidualCellBased(u, fl, field)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
