// Package repro reproduces "Massively Distributed Finite-Volume Flux
// Computation" (Sai, Jacquelin, Hamon, Araya-Polo, Settgast — SC 2023): a
// two-point flux approximation (TPFA) finite-volume kernel for geologic CO2
// storage, mapped onto a wafer-scale dataflow architecture and compared
// against RAJA- and CUDA-style GPU reference implementations.
//
// The module path is repro; the public API lives in repro/massivefv. From a
// clean checkout:
//
//	go build ./...
//	go test ./...
//
// Three bit-identical engines execute the dataflow schedule: the
// goroutine-per-PE fabric simulator (massivefv.RunDataflow), the serial flat
// engine (massivefv.RunDataflowFlat), and the sharded multi-core flat engine
// (massivefv.RunFlatParallel — worker count 0 means runtime.NumCPU(); the
// fvflux and fvsim commands expose it as -workers).
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
// The two flat entries are one engine, core.Engine, in the paper's execution
// model: Compile once (arena, PE layout, static columns, worker pool), then
// LoadPressure, Apply(n) and Residual on data that stays on the PEs.
//
// The §8 matrix-free Krylov extension runs on both mesh families. On the
// structured mesh, solver.DataflowOperator applies the pressure matrix
// through the dataflow kernel, on an engine it keeps for the whole solve
// (one load and one application per iteration). On the unstructured mesh, umesh.PartOperator
// implements solver.ProgramSpace, so CG runs part-resident: the
// whole Krylov working set lives in each part's compact layout for the
// entire solve (one scatter in, one gather out), and the recurrence runs as
// compiled phase programs — one plan dispatch per iteration, each operator
// application a fused pack+send+interior-compute step overlapping the halo
// exchange followed by receive+frontier, the vector algebra fused steps with
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
// preconditioner ladder (solver.PrecondKind: jacobi, block-SSOR, Chebyshev
// polynomial smoothing, two-level aggregation AMG with a once-per-system
// coarse operator) runs as fused phases under the same determinism
// contract; AMG cuts the 15360-cell benchmark mesh's CG iterations 9.3x vs
// Jacobi (1365 → 147, pinned by umesh's
// TestPrecondLadderRecordedIterationCounts).
//
// Tests form a pyramid: unit tests per package; property tests over seeded
// random systems (solver convergence and monotonicity, SPD symmetry and
// monotone A-norm error decrease per preconditioner rung, RCB balance and
// plan symmetry); native Go fuzz targets with a checked-in seed corpus
// (FuzzPartition, FuzzRadialMesh; `make fuzz-smoke`); golden regressions
// (partitioned solves bit-identical to serial references, per rung); a race
// gate over every concurrent engine (`make race`); a per-package coverage
// gate (`make cover`); and runnable godoc Example functions verified on
// every `go test` (`make docs-check`).
//
// ARCHITECTURE.md maps the layers and the dataflow of a partitioned
// resident solve; docs/benchmarks.md says how a number is measured here:
// benchmark/ (BENCHMARK.json) for every wall-clock claim, `go test -bench`
// for a stage.
//
// Performance: the engines execute through a fast path that stays
// bit-identical (residuals and counters) to the op-by-op code — the 14-FLOP
// face kernel as one fused single-pass macro-op (dsd.Engine.FluxFace, and
// FluxFaceAcc, which also assembles the residual from the register; every
// product explicitly rounded so no target contracts it into an FMA),
// stride-1 specialized vector ops iterating over reslices with the bounds
// check hoisted out of the loop, deferred per-op counter tallies folded into
// the full accounting at summarize time, per-PE memories allocated as one
// zeroed-once, footprint-sized arena per shard (dsd.NewSizedArena), host
// loads that walk the mesh a cache line at a time, and a zero-allocation
// halo exchange through persistent per-PE send buffers.
// `make bench-kernel` runs the layer-by-layer microbenchmarks
// (BenchmarkKernel* in internal/dsd, internal/core and internal/solver: the
// fast path against the op-by-op oracle, the engine's four stages, a
// dataflow-operator CG solve). See the README's Performance section.
//
// The root package carries the module documentation and the benchmark suite
// (bench_test.go) that regenerates every table and figure of the paper's
// evaluation; see README.md.
package repro
