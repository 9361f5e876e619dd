package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
)

func TestPartitionRows(t *testing.T) {
	cases := []struct {
		ny, parts int
		want      []band
	}{
		{1, 1, []band{{0, 1}}},
		{1, 8, []band{{0, 1}}},         // more workers than rows
		{4, 2, []band{{0, 2}, {2, 4}}}, // even split
		{5, 2, []band{{0, 3}, {3, 5}}}, // remainder goes to the front
		{7, 3, []band{{0, 3}, {3, 5}, {5, 7}}},
		{3, 0, []band{{0, 3}}}, // degenerate worker count
	}
	for _, c := range cases {
		got := partitionRows(c.ny, c.parts)
		if len(got) != len(c.want) {
			t.Errorf("partitionRows(%d,%d) = %v, want %v", c.ny, c.parts, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("partitionRows(%d,%d)[%d] = %v, want %v", c.ny, c.parts, i, got[i], c.want[i])
			}
		}
	}
	// Exhaustive invariants: bands are contiguous, non-empty, and cover
	// [0, ny) exactly for every (ny, parts) pair in a practical range.
	for ny := 1; ny <= 12; ny++ {
		for parts := 1; parts <= 12; parts++ {
			bands := partitionRows(ny, parts)
			y := 0
			for _, b := range bands {
				if b.y0 != y || b.y1 <= b.y0 {
					t.Fatalf("partitionRows(%d,%d): bad band %v at y=%d", ny, parts, b, y)
				}
				y = b.y1
			}
			if y != ny {
				t.Fatalf("partitionRows(%d,%d): covered [0,%d), want [0,%d)", ny, parts, y, ny)
			}
		}
	}
}

// TestParallelMatchesFlatBitExact is the tentpole equivalence: the sharded
// engine must be bit-identical to the serial flat engine — residuals AND
// counters — across worker counts, mesh shapes, diagonals on/off, each
// sharded run with one band (all of it at one worker) on the slab a closed
// engine left NaN. Run under -race this also proves the phase barriers are
// sufficient.
func TestParallelMatchesFlatBitExact(t *testing.T) {
	fl := physics.DefaultFluid()
	dims := []mesh.Dims{
		{Nx: 6, Ny: 5, Nz: 4},
		{Nx: 3, Ny: 9, Nz: 3}, // tall: more rows than typical worker counts
		{Nx: 9, Ny: 2, Nz: 5}, // fewer rows than workers
	}
	// 1/2/4 are pinned (not NumCPU-derived) so the exec-pool dispatch with
	// fewer workers than shards is exercised even on small CI hosts.
	workerCounts := []int{1, 2, 4, runtime.NumCPU()}
	for _, d := range dims {
		for _, diagonals := range []bool{true, false} {
			m := testMesh(t, d)
			serialOpts := DefaultOptions(3)
			serialOpts.Diagonals = diagonals
			serial, err := runFlat(m, fl, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Engine != "flat" {
				t.Errorf("runFlat engine = %q, want flat", serial.Engine)
			}
			for _, w := range workerCounts {
				opts := serialOpts
				opts.Workers = w
				par := runFlatPoisoned(t, m, fl, opts)
				for i := range serial.Residual {
					if serial.Residual[i] != par.Residual[i] {
						t.Fatalf("dims=%v diag=%v workers=%d: residual[%d] differs: serial %g vs parallel %g",
							d, diagonals, w, i, serial.Residual[i], par.Residual[i])
					}
				}
				if serial.Counters != par.Counters {
					t.Errorf("dims=%v diag=%v workers=%d: counters differ:\nserial   %+v\nparallel %+v",
						d, diagonals, w, serial.Counters, par.Counters)
				}
				if serial.Interior != nil {
					if par.Interior == nil || *serial.Interior != *par.Interior {
						t.Errorf("dims=%v workers=%d: interior per-cell counts differ", d, w)
					}
				}
			}
		}
	}
}

func TestParallelMatchesReference(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 8, Ny: 7, Nz: 6})
	fl := physics.DefaultFluid()
	opts := DefaultOptions(2)
	opts.Workers = 3 // deliberately not a divisor of Ny
	res, err := RunFlatParallel(m, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refflux.Run(m, fl.WithModel(physics.DensityLinear), m.Pressure32(), 2, refflux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResidualsClose(t, res.Residual, ref, 2e-3)
	if res.Engine != "flat" {
		t.Errorf("engine = %q, want flat", res.Engine)
	}
}

// TestParallelCommOnly: the comm-only build runs on the fabric engine, which
// ignores Workers, and moves exactly the FMOV and fabric words of the flat
// engine's full run at two workers, with no FLOP.
func TestParallelCommOnly(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 4, Ny: 6, Nz: 4})
	opts := DefaultOptions(2)
	opts.Workers = 2
	full, err := RunFlatParallel(m, physics.DefaultFluid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.CommOnly = true
	co, err := RunFabric(m, physics.DefaultFluid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if co.Counters.FMOV != full.Counters.FMOV || co.Counters.FabricLoads != full.Counters.FabricLoads {
		t.Errorf("comm-only moved FMOV %d / fabric %d, full run %d / %d",
			co.Counters.FMOV, co.Counters.FabricLoads, full.Counters.FMOV, full.Counters.FabricLoads)
	}
	if co.Counters.Flops() != 0 {
		t.Errorf("comm-only performed %d FLOPs", co.Counters.Flops())
	}
}

func TestParallelSingleRowAndColumn(t *testing.T) {
	// Degenerate grids: 1 row (one band regardless of workers) and 1 column.
	fl := physics.DefaultFluid()
	for _, d := range []mesh.Dims{{Nx: 7, Ny: 1, Nz: 3}, {Nx: 1, Ny: 7, Nz: 3}} {
		m := testMesh(t, d)
		serial, err := runFlat(m, fl, DefaultOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions(2)
		opts.Workers = 4
		par, err := RunFlatParallel(m, fl, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Residual {
			if serial.Residual[i] != par.Residual[i] {
				t.Fatalf("dims=%v: residual[%d] differs", d, i)
			}
		}
	}
}

func TestParallelErrorPropagation(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 3, Ny: 6, Nz: 64})
	opts := DefaultOptions(1)
	opts.MemWords = 512 // far below the 44·64-word footprint
	opts.Workers = 3
	if _, err := RunFlatParallel(m, physics.DefaultFluid(), opts); err == nil || !strings.Contains(err.Error(), "out of PE memory") {
		t.Fatalf("parallel engine accepted impossible memory budget: err = %v", err)
	}
	// Fresh options at the default budget, so only the worker check can fail.
	opts = DefaultOptions(1)
	opts.Workers = -2
	if _, err := RunFlatParallel(m, physics.DefaultFluid(), opts); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("negative worker count accepted: err = %v", err)
	}
}
