package core

import (
	"math"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/dsd"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// This file proves that an engine reads no word its arena held before it:
// Close hands the bands' slabs back to dsd, which keeps the one released
// last, the next engine of its size takes it as it is, and the bit-exact
// matrices run on slabs a closed engine left NaN.

// slabs returns the identity of every band's slab, its first word, reached
// through the engine's own states.
func slabs(e *Engine) map[*float32]bool {
	ids := make(map[*float32]bool)
	for shard := range e.bands {
		ids[&e.band(shard)[0].eng.Mem.HostView(dsd.Desc{Len: 1})[0]] = true
	}
	return ids
}

// shares reports whether engine e holds any of the slabs ids.
func shares(e *Engine, ids map[*float32]bool) bool {
	for id := range slabs(e) {
		if ids[id] {
			return true
		}
	}
	return false
}

// poisonArenas NaN-fills every word a closed engine's PE memories laid out,
// up to each one's high-water mark, through its own states: whatever the next
// engine on these slabs reads before it writes it is NaN.
func poisonArenas(e *Engine) {
	for i := range e.states {
		mem := e.states[i].eng.Mem
		for k, col := 0, mem.HostView(dsd.Desc{Len: mem.Stats().HighWaterWords}); k < len(col); k++ {
			col[k] = float32(math.NaN())
		}
	}
}

// gcOff turns the collector off for the rest of the test, so that the weak
// slot keeps the slab a closed engine handed back last.
func gcOff(t testing.TB) {
	prev := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
}

// poisonedSlabs compiles an engine for m and opts, closes it and NaN-fills
// its slabs, the last of which dsd now keeps for the next engine of its size.
func poisonedSlabs(t testing.TB, m *mesh.Mesh, fl physics.Fluid, opts Options) map[*float32]bool {
	t.Helper()
	gcOff(t)
	e, err := Compile(m, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := slabs(e)
	e.Close()
	poisonArenas(e)
	return ids
}

// compileOnPoisoned compiles an engine for m and opts on the NaN-filled
// slab of one compiled and closed before it, failing the test unless a band
// took it: the whole engine at Workers = 1, at more the first band of the
// released slab's size to ask.
func compileOnPoisoned(t testing.TB, m *mesh.Mesh, fl physics.Fluid, opts Options) *Engine {
	t.Helper()
	want := poisonedSlabs(t, m, fl, opts)
	e, err := Compile(m, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !shares(e, want) {
		e.Close()
		t.Fatal("the engine did not take the slab the engine closed before it released")
	}
	return e
}

// runFlatPoisoned is RunFlatParallel on an engine compiled on poisoned
// slabs.
func runFlatPoisoned(t testing.TB, m *mesh.Mesh, fl physics.Fluid, opts Options) *Result {
	t.Helper()
	e := compileOnPoisoned(t, m, fl, opts)
	defer e.Close()
	if err := e.LoadPressure(m.Pressure); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(e.opts.Apps); err != nil {
		t.Fatal(err)
	}
	return summarize(e.states, e.dims, e.opts, 0)
}

// TestCloseHandsEachSlabBackOnce: closing an engine twice stops its pool
// and hands its slab back once, so of the two engines compiled next — both
// alive at once — the first takes the closed engine's slab and the second a
// fresh one, and the first runs bit-identical to the fabric.
func TestCloseHandsEachSlabBackOnce(t *testing.T) {
	gcOff(t)
	m := testMesh(t, mesh.Dims{Nx: 6, Ny: 4, Nz: 3})
	fl := physics.DefaultFluid()
	opts := DefaultOptions(1)
	fab, err := RunFabric(m, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		opts.Workers = workers
		e, err := Compile(m, fl, opts)
		if err != nil {
			t.Fatal(err)
		}
		closed := slabs(e)
		e.Close()
		e.Close()
		a, err := Compile(m, fl, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compile(m, fl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !shares(a, closed) {
			t.Fatalf("workers=%d: the next engine did not take the closed engine's slab", workers)
		}
		if shares(b, slabs(a)) {
			t.Fatalf("workers=%d: two live engines share a slab: a twice-closed engine's slab was handed out twice", workers)
		}
		if err := a.LoadPressure(m.Pressure); err != nil {
			t.Fatal(err)
		}
		if err := a.Apply(opts.Apps); err != nil {
			t.Fatal(err)
		}
		for i, v := range summarize(a.states, a.dims, a.opts, 0).Residual {
			if math.Float32bits(v) != math.Float32bits(fab.Residual[i]) {
				t.Fatalf("workers=%d: residual[%d] = %g after a close twice and a recompile, fabric %g", workers, i, v, fab.Residual[i])
			}
		}
		a.Close()
		b.Close()
	}
}

// TestConcurrentCompileAndClose compiles and closes engines of one size from
// two goroutines at Workers = 2, whose bands take and release slabs
// concurrently: under -race this checks the slot's locking, and every
// engine must still match the fabric bit for bit.
func TestConcurrentCompileAndClose(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 5, Ny: 4, Nz: 4})
	fl := physics.DefaultFluid()
	opts := DefaultOptions(2)
	fab, err := RunFabric(m, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 2
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				res, err := RunFlatParallel(m, fl, opts)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range res.Residual {
					if math.Float32bits(res.Residual[i]) != math.Float32bits(fab.Residual[i]) {
						t.Errorf("residual[%d] = %g, fabric %g", i, res.Residual[i], fab.Residual[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// PoisonedSlabs is poisonedSlabs for the external tests of this package.
func PoisonedSlabs(t testing.TB, m *mesh.Mesh, fl physics.Fluid, opts Options) map[*float32]bool {
	t.Helper()
	return poisonedSlabs(t, m, fl, opts)
}

// NextEngineTakes compiles and closes an engine for m and opts and reports
// whether it took one of the slabs ids. dsd keeps the slab released last, so
// right after an engine closes this tells whether that engine's last band
// held one of them.
func NextEngineTakes(t testing.TB, m *mesh.Mesh, fl physics.Fluid, opts Options, ids map[*float32]bool) bool {
	t.Helper()
	e, err := Compile(m, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	return shares(e, ids)
}
