// Package repro reproduces "Massively Distributed Finite-Volume Flux
// Computation" (Sai, Jacquelin, Hamon, Araya-Polo, Settgast — SC 2023): a
// two-point flux approximation (TPFA) finite-volume kernel for geologic CO2
// storage, mapped onto a wafer-scale dataflow architecture and compared
// against the paper's RAJA and CUDA GPU builds, which here run one simulated
// reference kernel and differ only in their calibrated projections.
//
// The module path is repro; the public API lives in repro/massivefv. From a
// clean checkout:
//
//	go build ./...
//	go test ./...
//
// Two bit-identical engines execute the dataflow schedule: the
// goroutine-per-PE fabric simulator (massivefv.RunDataflow,
// RunDataflowOpts), which also runs the paper's comm-only and scalar builds,
// and the flat engine (massivefv.RunFlatParallelOpts — Options.Workers row
// bands on a worker pool, 0 meaning runtime.NumCPU(); fvsim exposes it as
// -workers), which runs the vectorized kernel only.
//
// The partitioned runtimes share one execution layer, internal/exec: a pool
// of persistent workers dispatching barriered phases over integer shards.
// The structured sharded engine runs row bands on it; the §9 unstructured
// path runs RCB parts on it, compiled once into a umesh.Layout — compact
// O(owned+halo) per-part numbering and precompiled allocation-free
// direct-write halo exchange — that both unstructured runtimes stand on:
// umesh.PartEngine, the persistent float32 residual engine with
// communication counters, bit-identical to the serial cell-based sweep
// (massivefv.RunUnstructured), and umesh.PartOperator below.
//
// The flat engine is core.Engine, in the paper's execution model: Compile once (arena, PE layout, static columns, worker pool), then
// LoadPressure, Apply(n) and Residual on data that stays on the PEs.
//
// The §8 matrix-free Krylov extension runs on both mesh families, through
// one pressure system (umesh.USystem) and one backward-Euler step loop
// (umesh.TransientSolver). The structured simulator (internal/sim) converts
// its mesh with umesh.FromStructured, keeping the per-cell porosity; with
// -dataflow, sim.DataflowOperator applies the pressure matrix through the
// dataflow kernel, on an engine it keeps for the whole solve (one load and
// one application per iteration). On the unstructured mesh, umesh.PartOperator
// implements solver.ProgramSpace, so CG runs part-resident: the
// whole Krylov working set lives in each part's compact layout for the
// entire solve (one scatter in, one gather out), and the recurrence runs as
// compiled phase programs — one plan dispatch per iteration, each operator
// application a halo push step (when some part exchanges data), the barrier
// and one sweep over every owned row, the vector algebra fused steps with
// per-part partial reductions. The phase programs are the only statement of
// the recurrence and solver.Resident.Solve the only loop that iterates it:
// a plain Operator (and the serial reference) runs the same programs on a
// solver.SliceSpace, op by op over global-order slices. Every inner product
// folds through the canonical blocked reduction (umesh.CanonicalOrder — the
// RCB recursion's own summation tree), so a transient backward-Euler run
// (umesh.RunTransientPartitioned, massivefv.SolveUnstructured /
// RunTransientUnstructured, `fvsim -mesh unstructured -parts N`) is
// bit-identical to the serial reference at every part and worker count:
// residual histories, iteration counts, and the final field. A resident
// preconditioner ladder (solver.PrecondKind: jacobi, Chebyshev polynomial
// smoothing, aggregation AMG whose coarse correction is a
// once-per-system two-grid cycle) runs as fused phases under the same
// determinism contract; AMG cuts the 15360-cell benchmark mesh's CG
// iterations 8.6x vs Jacobi (1365 → 159, pinned by umesh's
// TestPrecondLadderRecordedIterationCounts).
//
// Tests form a pyramid: unit tests per package; property tests over seeded
// random systems (solver convergence and monotonicity, SPD symmetry and
// monotone A-norm error decrease per preconditioner rung, RCB balance and
// plan symmetry); native Go fuzz targets with a checked-in seed corpus
// (FuzzPartition, FuzzRadialMesh; `make fuzz-smoke`); golden regressions
// (partitioned solves bit-identical to serial references, per rung); a race
// gate over every concurrent engine (`make race`); a per-package coverage
// gate (`make cover`); and runnable godoc Example functions — the module's
// only demonstrations, each with an exact Output block — verified on every
// `go test` (`make docs-check`).
//
// ARCHITECTURE.md maps the layers and the dataflow of a partitioned
// resident solve; docs/benchmarks.md says how a number is measured here:
// benchmark/ (BENCHMARK.json) for every wall-clock claim, `go test -bench`
// for a stage.
//
// Performance: the engines stay bit-identical (residuals and counters) to an
// op-by-op oracle kept in the tests. The 14-FLOP face kernel is one fused
// single-pass macro-op (dsd.Engine.FluxFace; every product explicitly
// rounded so no target contracts it into an FMA), and the flat engine runs a
// PE's whole application as one more, dsd.Engine.FluxCell: the ten faces in
// one pass, in-plane columns read off the wire, the fluxes summed in a
// register and the residual stored once; descriptors are contiguous
// columns, so every vector op is one loop over reslices with its bounds
// checked once per call; per-op counter tallies are deferred and folded into
// the full accounting at summarize time; per-PE memories are one
// footprint-sized arena per shard (dsd.NewSizedArena), whose slab
// Engine.Close hands back for the next band of that size to take as it
// is, never re-zeroed; host loads walk the mesh a cache line at a time; and
// the flat engine reads its neighbors' persistent send columns in place,
// with no copy or allocation.
// `make bench-kernel` runs the layer-by-layer microbenchmarks
// (BenchmarkKernel* in internal/dsd, internal/core and internal/solver: the
// fused kernels against the op-by-op oracle, the engine's four stages, a
// dataflow-operator CG solve). See the README's Performance section.
//
// The root package carries the module documentation and the benchmark suite
// (bench_test.go) that regenerates every table and figure of the paper's
// evaluation; see README.md.
package repro
