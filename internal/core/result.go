package core

import (
	"fmt"
	"time"

	"repro/internal/dsd"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// PerCell holds measured per-interior-cell instruction and traffic counts —
// the quantities of the paper's Table 4. Values are float64 because they are
// counter totals divided by cell count; for interior PEs they come out as
// exact integers.
type PerCell struct {
	FMUL, FSUB, FNEG, FADD, FMA, FMOV float64
	MemAccesses                       float64 // loads + stores (Table 4: 406)
	FabricLoads                       float64 // fabric words (Table 4: 16)
	Flops                             float64 // FMA = 2 (paper: 140)
}

// AIMemory returns FLOPs per local-memory byte (paper: 0.0862).
func (p PerCell) AIMemory() float64 {
	if p.MemAccesses == 0 {
		return 0
	}
	return p.Flops / (4 * p.MemAccesses)
}

// AIFabric returns FLOPs per fabric byte (paper: 2.1875).
func (p PerCell) AIFabric() float64 {
	if p.FabricLoads == 0 {
		return 0
	}
	return p.Flops / (4 * p.FabricLoads)
}

// Result is the output of a core engine run.
type Result struct {
	// Engine names the executing engine: "fabric" or "flat".
	Engine string
	// Dims echoes the mesh dimensions; Apps the application count.
	Dims mesh.Dims
	Apps int
	// Residual is the final flux residual in mesh layout (X innermost).
	Residual []float32
	// Counters is the vector-engine total over all PEs and applications.
	Counters dsd.Counters
	// Interior holds the measured per-cell counts of a fabric-interior PE
	// (nil when the mesh has no interior in X-Y).
	Interior *PerCell
	// FabricTotals reports wavelet traffic (fabric engine only).
	FabricTotals *fabric.TotalCounters
	// MemStats is the allocator report of a representative (interior if
	// possible) PE — the buffer-reuse ablation reads HighWaterWords.
	MemStats dsd.Stats
	// Elapsed is the host wall-clock for the device portion of the run.
	Elapsed time.Duration
}

// CellsUpdated returns total cell updates performed (cells × applications).
func (r *Result) CellsUpdated() uint64 {
	return uint64(r.Dims.Cells()) * uint64(r.Apps)
}

// HostThroughput returns host-simulation cell updates per second — a
// simulator speed metric, not a hardware projection.
func (r *Result) HostThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.CellsUpdated()) / r.Elapsed.Seconds()
}

// perCellFromCounters derives per-cell counts from one PE's counters.
func perCellFromCounters(c *dsd.Counters, apps, nz int) *PerCell {
	den := float64(apps) * float64(nz)
	if den == 0 {
		return nil
	}
	return &PerCell{
		FMUL:        float64(c.FMUL) / den,
		FSUB:        float64(c.FSUB) / den,
		FNEG:        float64(c.FNEG) / den,
		FADD:        float64(c.FADD) / den,
		FMA:         float64(c.FMA) / den,
		FMOV:        float64(c.FMOV) / den,
		MemAccesses: float64(c.MemAccesses()) / den,
		FabricLoads: float64(c.FabricLoads) / den,
		Flops:       float64(c.Flops()) / den,
	}
}

// interiorPE picks the coordinates of a PE with all eight in-plane
// neighbors, or ok=false when none exists.
func interiorPE(d mesh.Dims) (x, y int, ok bool) {
	if d.Nx < 3 || d.Ny < 3 {
		return 0, 0, false
	}
	return d.Nx / 2, d.Ny / 2, true
}

// gatherResidual copies per-PE residual columns into mesh layout.
func gatherResidual(states []peState, d mesh.Dims) []float32 {
	out := make([]float32, d.Cells())
	storeField(states, out, (*peState).residual)
	return out
}

// summarize builds the Result pieces shared by all engines. The per-PE
// reduction walks states in fixed mesh-index order (y-major, x-minor) — not
// in any engine-dependent completion order — so the accounting a Result
// reports is identical no matter which goroutine, worker or shard finished
// first.
func summarize(engine string, states []peState, d mesh.Dims, opts Options, elapsed time.Duration) *Result {
	res := &Result{
		Engine:   engine,
		Dims:     d,
		Apps:     opts.Apps,
		Residual: gatherResidual(states, d),
		Elapsed:  elapsed,
	}
	// The per-op tallies deferred during the run are folded into the full
	// Counters accounting here, once per PE, instead of field-by-field in the
	// op hot loops.
	for i := range states {
		states[i].eng.AddCounters(&res.Counters)
	}
	if x, y, ok := interiorPE(d); ok {
		s := &states[y*d.Nx+x]
		sc := s.eng.Counters()
		res.Interior = perCellFromCounters(&sc, opts.Apps, d.Nz)
		res.MemStats = s.eng.Mem.Stats()
	} else if len(states) > 0 {
		res.MemStats = states[0].eng.Mem.Stats()
	}
	return res
}

// String renders the per-cell counts like the paper's Table 4 rows.
func (p PerCell) String() string {
	return fmt.Sprintf("FMUL=%.0f FSUB=%.0f FNEG=%.0f FADD=%.0f FMA=%.0f FMOV=%.0f mem=%.0f fabric=%.0f flops=%.0f",
		p.FMUL, p.FSUB, p.FNEG, p.FADD, p.FMA, p.FMOV, p.MemAccesses, p.FabricLoads, p.Flops)
}
