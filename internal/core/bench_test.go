package core

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/physics"
)

// BenchmarkKernel* covers the engine hot path above the dsd ops: the 14-FLOP
// faceFlux kernel, a full per-PE application (halo exchange included), the
// whole flat engine on the scaling workload's shape, the engine's four stages
// on the repository benchmark's mesh, and the wavelet fabric engine on the
// benchmark's fabric-probe mesh.

// benchStates compiles a small mesh with the default options, loads its
// pressure field and returns the engine's PE states.
func benchStates(b *testing.B, d mesh.Dims, apps int) ([]peState, *mesh.Mesh, Options) {
	b.Helper()
	m, err := mesh.BuildDefault(d)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions(apps)
	opts.Workers = 1
	e, err := Compile(m, physics.DefaultFluid(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	if err := e.LoadPressure(m.Pressure); err != nil {
		b.Fatal(err)
	}
	return e.states, m, e.opts
}

// BenchmarkKernelFaceFlux measures one face-group evaluation (the §5.3.3
// vector kernel) on an interior PE at the paper's column depth.
func BenchmarkKernelFaceFlux(b *testing.B) {
	states, m, _ := benchStates(b, mesh.Dims{Nx: 3, Ny: 3, Nz: 246}, 1)
	s := &states[1*m.Dims.Nx+1] // interior PE
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.computeFace(mesh.West)
	}
}

// BenchmarkKernelLocalApplication measures one interior PE's complete
// vectorized application as the flat engine runs it: one FluxCell over ten
// faces, eight of them read off the neighbors' send columns — exchange,
// residual zeroing, face groups and assembly in one pass.
func BenchmarkKernelLocalApplication(b *testing.B) {
	states, m, _ := benchStates(b, mesh.Dims{Nx: 3, Ny: 3, Nz: 246}, 1)
	s := &states[1*m.Dims.Nx+1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.applyCell(states)
	}
}

// BenchmarkKernelFlatEngine measures the whole flat engine on the
// strong-scaling workload shape (shrunk under -short for CI's smoke run) at
// one and two workers: workers=1 is the single inline band, workers=2
// the sharded pool, so `-cpu 1,2 -count 10` on this benchmark is the
// strong-scaling measurement of the structured engine.
func BenchmarkKernelFlatEngine(b *testing.B) {
	d := mesh.Dims{Nx: 64, Ny: 64, Nz: 4}
	if testing.Short() {
		d = mesh.Dims{Nx: 12, Ny: 12, Nz: 4}
	}
	m, err := mesh.BuildDefault(d)
	if err != nil {
		b.Fatal(err)
	}
	fl := physics.DefaultFluid()
	opts := DefaultOptions(2)
	opts.MemWords = WordsPerZ(opts.BufferReuse)*d.Nz + FixedWords
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := opts
			opts.Workers = workers
			var res *Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = RunFlatParallel(m, fl, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(res.HostThroughput()/1e6, "Mcells/s")
		})
	}
}

// BenchmarkKernelEngineStages sizes the four stages of a flat-engine run on
// the repository benchmark's flux-structured mesh (24×24×246; shrunk under
// -short): compile (arena, layout, static columns), load-pressure (own
// columns, ghosts, mirrors), apply (one application, perturbation included)
// and gather (the residual back in mesh layout). One flux-structured op is
// compile + load-pressure + 8 × apply + gather.
func BenchmarkKernelEngineStages(b *testing.B) {
	d := mesh.Dims{Nx: 24, Ny: 24, Nz: 246}
	if testing.Short() {
		d = mesh.Dims{Nx: 6, Ny: 6, Nz: 16}
	}
	m, err := mesh.BuildDefault(d)
	if err != nil {
		b.Fatal(err)
	}
	fl := physics.DefaultFluid()
	opts := DefaultOptions(1)
	opts.Workers = 1
	compile := func(b *testing.B) *Engine {
		e, err := Compile(m, fl, opts)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compile(b).Close()
		}
	})
	e := compile(b)
	defer e.Close()
	b.Run("load-pressure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := e.LoadPressure(m.Pressure); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apply", func(b *testing.B) {
		if err := e.LoadPressure(m.Pressure); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if err := e.Apply(b.N); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("gather", func(b *testing.B) {
		dst := make([]float32, d.Cells())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.Residual(dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKernelFabricRun measures the wavelet fabric engine (RunFabric) on
// the repository benchmark's fabric-probe shape, 8×8×64 with 2 applications
// (shrunk under -short). cells/s is the probe's fabric.cell_updates_per_s:
// cell updates over the time spent inside Fabric.Run, summed over all runs;
// wavelets is the count delivered to PEs per run (107 520 at full size).
func BenchmarkKernelFabricRun(b *testing.B) {
	d := mesh.Dims{Nx: 8, Ny: 8, Nz: 64}
	if testing.Short() {
		d = mesh.Dims{Nx: 4, Ny: 4, Nz: 8}
	}
	m, err := mesh.BuildDefault(d)
	if err != nil {
		b.Fatal(err)
	}
	fl := physics.DefaultFluid()
	opts := DefaultOptions(2)
	var cells, run float64
	var res *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = RunFabric(m, fl, opts); err != nil {
			b.Fatal(err)
		}
		cells += float64(res.CellsUpdated())
		run += res.Elapsed.Seconds()
	}
	b.ReportMetric(cells/run, "cells/s")
	b.ReportMetric(float64(res.FabricTotals.DeliveredToPE), "wavelets")
}
