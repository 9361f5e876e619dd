// Package core implements the paper's primary contribution: the TPFA
// finite-volume flux computation mapped onto a wafer-scale dataflow fabric
// (§5). Mesh cell (x, y, z) lives on PE (x, y); the whole Z column occupies
// the PE's private memory (§5.1, Fig. 4). Each application of Algorithm 1
// exchanges (pressure, gravity-coefficient) columns with the eight in-plane
// neighbors (§5.2, Fig. 5; the scheme is fabric/exchange.go), then evaluates
// ten face fluxes per cell with the 14-FLOP vector kernel of §5.3.3 and
// assembles them into the residual.
//
// Two engines execute the same schedule:
//
//   - the fabric engine (RunFabric) runs goroutine-per-PE on the
//     internal/fabric simulator with real wavelet traffic — the functional
//     twin of the CSL implementation, and the independent oracle;
//   - the flat engine (Engine: Compile, LoadPressure, Apply, Residual)
//     computes the same residuals and counters without wavelets, one
//     dsd.FluxCell per PE that reads the neighbors' columns off the wire,
//     for large functional meshes and for callers that apply the kernel many
//     times: the PE grid is decomposed into contiguous row bands executed on
//     a worker pool, with a barrier per phase so halo reads never race with
//     writes. RunFlatParallel is one compile + load + apply.
//
// Both produce bit-identical residuals and identical counters; tests assert
// it. The paper's modified builds — comm-only (Table 3) and the scalar
// kernel (§5.3.3) — run on the fabric engine only: Compile rejects them.
package core

import (
	"fmt"
	"runtime"

	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// Options configures a run of the dataflow TPFA engine.
type Options struct {
	// Apps is the number of applications of Algorithm 1 (the paper uses
	// 1000). The pressure field is perturbed in place between applications.
	Apps int
	// CommOnly removes all flux computation and keeps only the data
	// communication — the Table 3 ablation ("we modified our dataflow
	// implementation to remove all flux computations"). RunFabric only.
	CommOnly bool
	// Diagonals enables the four diagonal faces and their relayed
	// communication (§5.2.2). On by default through DefaultOptions; the
	// ablation turns it off to measure the textbook 6-face TPFA.
	Diagonals bool
	// Vectorized selects DSD vector execution (§5.3.3). When false the
	// kernel issues per-element scalar ops — functionally identical, but the
	// issue counters (and the modeled time) blow up; used by the ablation.
	// RunFabric only: the flat engine is vectorized.
	Vectorized bool
	// BufferReuse enables the §5.3.1 scratch-buffer reuse: 5 scratch columns
	// for the kernel's 13 intermediates, else 13. The fused kernel never
	// writes them, so only the per-PE high-water mark moves (Result.MemStats).
	BufferReuse bool
	// MemWords overrides the per-PE memory budget in float32 words
	// (default: the CS-2's 12288). Small values inject allocation failures.
	MemWords int
	// Workers is the worker-goroutine count of the flat engine: the PE grid
	// is decomposed into that many contiguous row bands, each executed by
	// one worker. 0 selects runtime.NumCPU(). RunFabric ignores it.
	Workers int
}

// DefaultOptions mirrors the paper's configuration: one applications batch
// with diagonals, vectorization and buffer reuse enabled.
func DefaultOptions(apps int) Options {
	return Options{
		Apps:        apps,
		Diagonals:   true,
		Vectorized:  true,
		BufferReuse: true,
	}
}

func (o Options) withDefaults() Options {
	if o.MemWords == 0 {
		o.MemWords = 12288
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

func (o Options) validate(m *mesh.Mesh, fl physics.Fluid) error {
	if o.Apps <= 0 {
		return fmt.Errorf("core: applications must be positive, got %d", o.Apps)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: workers must be non-negative, got %d", o.Workers)
	}
	if err := fl.Validate(); err != nil {
		return err
	}
	if err := m.Dims.Validate(); err != nil {
		return err
	}
	return nil
}

// exchangeColor is the first of the eight colors of the fabric engine's
// §5.2 exchange (fabric/exchange.go owns the scheme; 0 and 1 are the Fig. 6
// broadcast's).
const exchangeColor fabric.Color = 2

// xyDirections is the fixed processing order of the eight in-plane
// directions; nbr buffers, flux buffers and the assembly use this order so
// every engine performs float operations in the same sequence.
var xyDirections = [8]mesh.Direction{
	mesh.West, mesh.East, mesh.North, mesh.South,
	mesh.NorthWest, mesh.NorthEast, mesh.SouthWest, mesh.SouthEast,
}

// assemblyOrder fixes the residual accumulation order over all ten faces.
var assemblyOrder = [10]mesh.Direction{
	mesh.West, mesh.East, mesh.North, mesh.South,
	mesh.NorthWest, mesh.NorthEast, mesh.SouthWest, mesh.SouthEast,
	mesh.Down, mesh.Up,
}
