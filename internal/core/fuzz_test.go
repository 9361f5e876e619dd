package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/physics"
)

// FuzzFlatMatchesFabric holds the flat engine, compiled on a slab a closed
// engine left NaN, to the fabric engine on drawn shapes: Nx, Ny 1–9, Nz 1–40
// (both sides of one 8-lane step, so the cell's fluxElem-only columns and
// its vector body's overlapped last step both run), 1–4 workers (more than
// rows too), diagonals and buffer reuse on and off, 1–3 applications, and a
// per-PE budget that is the default, exactly the paper's footprint
// (WordsPerZ·Nz + FixedWords) or one word under it. Both engines run the
// same shapes, with every residual bit and every counter equal; a shape
// either refuses, both refuse as out of PE memory.
func FuzzFlatMatchesFabric(f *testing.F) {
	f.Fuzz(func(t *testing.T, nx, ny, nz, workers, apps, flags uint8) {
		d := mesh.Dims{Nx: int(nx)%9 + 1, Ny: int(ny)%9 + 1, Nz: int(nz)%40 + 1}
		opts := DefaultOptions(int(apps)%3 + 1)
		opts.Workers = int(workers)%4 + 1
		opts.Diagonals, opts.BufferReuse = flags&1 == 0, flags&2 == 0
		footprint := WordsPerZ(opts.BufferReuse)*d.Nz + FixedWords
		switch flags >> 2 % 3 {
		case 1:
			opts.MemWords = footprint
		case 2:
			opts.MemWords = footprint - 1
		}
		m := testMesh(t, d)
		fl := physics.DefaultFluid()
		fab, fabErr := RunFabric(m, fl, opts)
		e, flatErr := Compile(m, fl, opts)
		if flatErr == nil {
			e.Close()
		}
		if fabErr != nil || flatErr != nil {
			for _, err := range []error{fabErr, flatErr} {
				if err == nil || !strings.Contains(err.Error(), "out of PE memory") {
					t.Fatalf("%v %+v: fabric err %v, flat err %v; want both out of PE memory", d, opts, fabErr, flatErr)
				}
			}
			return
		}
		flat := runFlatPoisoned(t, m, fl, opts)
		for i := range flat.Residual {
			if math.Float32bits(flat.Residual[i]) != math.Float32bits(fab.Residual[i]) {
				t.Fatalf("%v %+v: residual[%d] flat %g vs fabric %g", d, opts, i, flat.Residual[i], fab.Residual[i])
			}
		}
		if flat.Counters != fab.Counters {
			t.Fatalf("%v %+v: counters differ:\nflat   %+v\nfabric %+v", d, opts, flat.Counters, fab.Counters)
		}
	})
}
