package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dsd"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// subCounters returns a − b field by field (counters only grow).
func subCounters(a, b dsd.Counters) dsd.Counters {
	return dsd.Counters{
		FMUL: a.FMUL - b.FMUL, FADD: a.FADD - b.FADD, FSUB: a.FSUB - b.FSUB,
		FNEG: a.FNEG - b.FNEG, FMA: a.FMA - b.FMA, FMOV: a.FMOV - b.FMOV,
		SELGT: a.SELGT - b.SELGT, ACC: a.ACC - b.ACC, FILL: a.FILL - b.FILL,
		Loads: a.Loads - b.Loads, Stores: a.Stores - b.Stores, FabricLoads: a.FabricLoads - b.FabricLoads,
		UncountedLoads: a.UncountedLoads - b.UncountedLoads, UncountedStores: a.UncountedStores - b.UncountedStores,
		Issues: a.Issues - b.Issues,
	}
}

// TestEngineReuseBitIdentical: one Compile followed by k × {LoadPressure,
// Apply} is k fresh runFlat runs — residual bits, the counters each run adds,
// the allocator report — for every worker count, with and without
// diagonals. (core is in the race gate, so the reuse also runs under -race.)
func TestEngineReuseBitIdentical(t *testing.T) {
	fl := physics.DefaultFluid()
	m := testMesh(t, mesh.Dims{Nx: 11, Ny: 6, Nz: 5})
	for _, diagonals := range []bool{true, false} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("diagonals=%v/workers=%d", diagonals, workers), func(t *testing.T) {
				opts := DefaultOptions(3)
				opts.Diagonals, opts.Workers = diagonals, workers
				e, err := Compile(m, fl, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				var before dsd.Counters
				for k := 0; k < 3; k++ {
					// A different field every round, different application
					// counts too: nothing of round k−1 may survive.
					view := *m
					view.Pressure = make([]float64, len(m.Pressure))
					for i, p := range m.Pressure {
						view.Pressure[i] = p + 3e4*math.Sin(float64(i+11*k)*0.21)
					}
					fresh, err := runFlat(&view, fl, withApps(opts, k+1))
					if err != nil {
						t.Fatal(err)
					}
					if err := e.LoadPressure(view.Pressure); err != nil {
						t.Fatal(err)
					}
					if err := e.Apply(k + 1); err != nil {
						t.Fatal(err)
					}
					got := summarize("flat", e.states, e.dims, withApps(e.opts, k+1), 0)
					for i := range fresh.Residual {
						if math.Float32bits(got.Residual[i]) != math.Float32bits(fresh.Residual[i]) {
							t.Fatalf("round %d: residual[%d] = %g, fresh run gives %g", k, i, got.Residual[i], fresh.Residual[i])
						}
					}
					if delta := subCounters(got.Counters, before); delta != fresh.Counters {
						t.Fatalf("round %d: counters added\n%+v\nfresh run counts\n%+v", k, delta, fresh.Counters)
					}
					before = got.Counters
					if got.MemStats != fresh.MemStats {
						t.Fatalf("round %d: MemStats %+v, fresh run %+v", k, got.MemStats, fresh.MemStats)
					}
				}
			})
		}
	}
}

func withApps(o Options, apps int) Options {
	o.Apps = apps
	return o
}

// TestEngineSplitApplyContinuesTheSequence: Apply(a) then Apply(b) is
// Apply(a+b) — the perturbation phase carries on where it stopped.
func TestEngineSplitApplyContinuesTheSequence(t *testing.T) {
	fl := physics.DefaultFluid()
	m := testMesh(t, mesh.Dims{Nx: 4, Ny: 3, Nz: 4})
	whole, err := runFlat(m, fl, DefaultOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(m, fl, DefaultOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.LoadPressure(m.Pressure); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 0, 3} {
		if err := e.Apply(n); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]float32, m.Dims.Cells())
	if err := e.Residual(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(whole.Residual[i]) {
			t.Fatalf("residual[%d] = %g, one Apply(5) gives %g", i, got[i], whole.Residual[i])
		}
	}
}

func TestEngineRejectsWrongSizes(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 2})
	e, err := Compile(m, physics.DefaultFluid(), DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.LoadPressure(make([]float64, 17)); err == nil {
		t.Error("LoadPressure accepted a field of the wrong size")
	}
	if err := e.Residual(make([]float32, 19)); err == nil {
		t.Error("Residual accepted a buffer of the wrong size")
	}
}

// TestEngineApplyRejectsNegativeCount: Apply(n) with n < 0 is an error
// naming n, and it runs nothing — no phase, no count, no perturbation step.
func TestEngineApplyRejectsNegativeCount(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 2})
	e, err := Compile(m, physics.DefaultFluid(), DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.LoadPressure(m.Pressure); err != nil {
		t.Fatal(err)
	}
	err = e.Apply(-3)
	if err == nil || !strings.Contains(err.Error(), "-3") {
		t.Fatalf("Apply(-3) = %v, want an error naming -3", err)
	}
	if c := summarize("flat", e.states, e.dims, e.opts, 0).Counters; e.app != 0 || c != (dsd.Counters{}) {
		t.Fatalf("Apply(-3) ran: application %d, counters %+v", e.app, c)
	}
}

// TestFlatEngineReadsTheWire: the vectorized flat engine takes each in-plane
// neighbor's column straight off that neighbor's send column, so with every
// present neighbor's receive buffers NaN after LoadPressure its residual bits
// and counters are still RunFabric's — at Nz = 4 (all kernel tail) and 13,
// with and without diagonals, at one worker and two. A PE with a missing
// neighbor still reads that face off its mirror buffers: NaN them on the
// corner PE (0,0) too and exactly its residual turns NaN (Υ = 0 there, and
// 0·NaN is NaN), while every other cell keeps the fabric's bits.
func TestFlatEngineReadsTheWire(t *testing.T) {
	fl := physics.DefaultFluid()
	nan := float32(math.NaN())
	// poison NaNs the receive buffers of s's present (or missing) neighbors.
	poison := func(s *peState, present bool) {
		for k, has := range s.hasNbr {
			if has != present {
				continue
			}
			for _, col := range [][]float32{s.eng.Mem.HostView(s.nbrP[k]), s.eng.Mem.HostView(s.nbrGz[k])} {
				for i := range col {
					col[i] = nan
				}
			}
		}
	}
	for _, nz := range []int{4, 13} {
		m := testMesh(t, mesh.Dims{Nx: 5, Ny: 4, Nz: nz})
		for _, diagonals := range []bool{true, false} {
			opts := DefaultOptions(3)
			opts.Diagonals = diagonals
			fab, err := RunFabric(m, fl, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				for _, mirrors := range []bool{false, true} {
					name := fmt.Sprintf("nz=%d/diagonals=%v/workers=%d/nan-mirrors=%v", nz, diagonals, workers, mirrors)
					t.Run(name, func(t *testing.T) {
						opts := opts
						opts.Workers = workers
						e, err := Compile(m, fl, opts)
						if err != nil {
							t.Fatal(err)
						}
						defer e.Close()
						if err := e.LoadPressure(m.Pressure); err != nil {
							t.Fatal(err)
						}
						for i := range e.states {
							poison(&e.states[i], true)
						}
						if mirrors {
							poison(&e.states[0], false)
						}
						if err := e.Apply(opts.Apps); err != nil {
							t.Fatal(err)
						}
						flat := summarize("flat", e.states, e.dims, e.opts, 0)
						for i, got := range flat.Residual {
							want := fab.Residual[i]
							if corner := i%(m.Dims.Nx*m.Dims.Ny) == 0; mirrors && corner {
								if got == got {
									t.Fatalf("residual[%d] = %g with NaN mirrors, want NaN: the mirror was not read", i, got)
								}
								continue
							}
							if math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("residual[%d] = %g, fabric %g: a receive buffer was read", i, got, want)
							}
						}
						if flat.Counters != fab.Counters {
							t.Errorf("counters differ:\nflat   %+v\nfabric %+v", flat.Counters, fab.Counters)
						}
					})
				}
			}
		}
	}
}

// TestTileLoaderMatchesPerPEGather holds the tile-ordered host loaders to the
// per-PE strided gather they replaced, column by column: on grids whose
// width is under, over and not a multiple of the tile, on a single column
// and on a single plane, at one worker and at more bands than tiles. Every
// engine runs on a slab a closed engine left NaN; the diagonal Υ columns,
// which no engine reads with diagonals off, are checked only with them on.
func TestTileLoaderMatchesPerPEGather(t *testing.T) {
	fl := physics.DefaultFluid().WithModel(physics.DensityLinear)
	for _, d := range []mesh.Dims{
		{Nx: 3, Ny: 2, Nz: 4}, {Nx: 8, Ny: 3, Nz: 3}, {Nx: 13, Ny: 4, Nz: 5}, {Nx: 17, Ny: 2, Nz: 2},
		{Nx: 1, Ny: 1, Nz: 9}, {Nx: 11, Ny: 1, Nz: 1}, {Nx: 1, Ny: 7, Nz: 3},
	} {
		for _, diagonals := range []bool{true, false} {
			for _, workers := range []int{1, 3} {
				m := testMesh(t, d)
				opts := DefaultOptions(1)
				opts.Diagonals, opts.Workers = diagonals, workers
				e := compileOnPoisoned(t, m, fl, opts)
				if err := e.LoadPressure(m.Pressure); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%v diagonals=%v workers=%d", d, diagonals, workers)
				// column is the replaced gather: every Nx·Ny-th cell from (x, y).
				column := func(s *peState, cell func(idx int) float32) []float32 {
					col := make([]float32, d.Nz)
					for z := range col {
						col[z] = cell((z*d.Ny+s.y)*d.Nx + s.x)
					}
					return col
				}
				expect := func(s *peState, what string, got dsd.Desc, want []float32) {
					t.Helper()
					for z, v := range s.eng.Mem.HostView(got) {
						if math.Float32bits(v) != math.Float32bits(want[z]) {
							t.Fatalf("%s: PE(%d,%d) %s[%d] = %g, per-PE gather gives %g", name, s.x, s.y, what, z, v, want[z])
						}
					}
				}
				want := make([]float32, d.Cells())
				for i := range e.states {
					s := &e.states[i]
					if s.x != i%d.Nx || s.y != i/d.Nx {
						t.Fatalf("%s: state %d is PE(%d,%d)", name, i, s.x, s.y)
					}
					p := column(s, func(idx int) float32 { return float32(m.Pressure[idx]) })
					gz := column(s, func(idx int) float32 { return float32(fl.Gravity * m.Elev[idx]) })
					expect(s, "p", s.p, p)
					expect(s, "gz", s.gz, gz)
					expect(s, "pPad", s.pPad, append(append([]float32{p[0]}, p...), p[d.Nz-1]))
					expect(s, "gzPad", s.gzPad, append(append([]float32{gz[0]}, gz...), gz[d.Nz-1]))
					send := append(append([]float32(nil), p...), gz...)
					for z, v := range s.sendBuf {
						if math.Float32bits(v) != math.Float32bits(send[z]) {
							t.Fatalf("%s: PE(%d,%d) send column[%d] = %g, want %g", name, s.x, s.y, z, v, send[z])
						}
					}
					for _, dir := range mesh.AllDirections {
						if !diagonals && dir.IsDiagonal() {
							continue
						}
						tr := column(s, func(idx int) float32 { return float32(m.Trans[dir][idx]) })
						expect(s, "trans "+dir.String(), s.trans[dir], tr)
					}
					for k, dir := range xyDirections {
						dx, dy, _ := dir.Offset()
						has := s.x+dx >= 0 && s.x+dx < d.Nx && s.y+dy >= 0 && s.y+dy < d.Ny
						if s.hasNbr[k] != has {
							t.Fatalf("%s: PE(%d,%d) hasNbr[%v] = %v", name, s.x, s.y, dir, s.hasNbr[k])
						}
						if !has { // mirrors of the own data
							expect(s, "mirror p "+dir.String(), s.nbrP[k], p)
							expect(s, "mirror gz "+dir.String(), s.nbrGz[k], gz)
						}
					}
					// A recognisable residual for the gather below.
					res := s.eng.Mem.HostView(s.res)
					for z := range res {
						res[z] = float32(1000*s.x+100*s.y) + float32(z)/8
						want[(z*d.Ny+s.y)*d.Nx+s.x] = res[z]
					}
				}
				got := make([]float32, d.Cells())
				for i := range got {
					got[i] = -1
				}
				if err := e.Residual(got); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: gathered residual[%d] = %g, per-PE scatter gives %g", name, i, got[i], want[i])
					}
				}
				e.Close()
			}
		}
	}
}
