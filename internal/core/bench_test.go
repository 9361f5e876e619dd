package core

import (
	"fmt"
	"testing"

	"repro/internal/dsd"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// BenchmarkKernel* covers the engine hot path above the dsd ops: the 14-FLOP
// faceFlux kernel, the zero-allocation halo exchange, a full per-PE local
// application, the whole flat engine on the scaling workload's shape, and
// the engine's four stages on the repository benchmark's mesh. Each reports
// both op paths so the fast-path win is visible per layer.

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

func benchBothPaths(b *testing.B, fn func(b *testing.B)) {
	for _, path := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"strided", false}} {
		b.Run(path.name, func(b *testing.B) {
			prev := dsd.SetFastPath(path.fast)
			defer dsd.SetFastPath(prev)
			fn(b)
		})
	}
}

// BenchmarkKernelFaceFlux measures one face-group evaluation (the §5.3.3
// vector kernel) on an interior PE at the paper's column depth.
func BenchmarkKernelFaceFlux(b *testing.B) {
	benchBothPaths(b, func(b *testing.B) {
		states, m, _ := benchStates(b, mesh.Dims{Nx: 3, Ny: 3, Nz: 246}, 1)
		s := &states[1*m.Dims.Nx+1] // interior PE
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.computeFace(mesh.West)
		}
	})
}

// BenchmarkKernelExchange measures one PE's full halo exchange (eight
// neighbor columns, FMOV-accounted, no allocation).
func BenchmarkKernelExchange(b *testing.B) {
	benchBothPaths(b, func(b *testing.B) {
		states, m, _ := benchStates(b, mesh.Dims{Nx: 3, Ny: 3, Nz: 246}, 1)
		s := &states[1*m.Dims.Nx+1]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := flatExchange(states, s, m.Dims.Nx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKernelLocalApplication measures one PE's complete local
// application: residual zeroing, ten face groups, assembly.
func BenchmarkKernelLocalApplication(b *testing.B) {
	benchBothPaths(b, func(b *testing.B) {
		states, m, _ := benchStates(b, mesh.Dims{Nx: 3, Ny: 3, Nz: 246}, 1)
		s := &states[1*m.Dims.Nx+1]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.runLocalApplication()
		}
	})
}

// BenchmarkKernelFlatEngine measures the whole flat engine on the
// strong-scaling workload shape (shrunk under -short for CI's smoke run) at
// one and two workers: workers=1 is RunFlat's single inline band, workers=2
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
	benchBothPaths(b, func(b *testing.B) {
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
	})
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
