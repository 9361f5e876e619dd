package umesh

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/physics"
)

// engineFixtures returns the three mesh builders of the bit-identity
// satellite: structured-converted, jittered, and radial.
func engineFixtures(t *testing.T) map[string]*Mesh {
	t.Helper()
	_, conv := structuredFixture(t, mesh.Dims{Nx: 8, Ny: 6, Nz: 3})
	_, jit := structuredFixture(t, mesh.Dims{Nx: 8, Ny: 6, Nz: 3})
	if err := jit.Jitter(0.25, 11); err != nil {
		t.Fatal(err)
	}
	rad, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Mesh{"structured": conv, "jittered": jit, "radial": rad}
}

func enginePressure(u *Mesh) []float32 {
	p := make([]float32, u.NumCells)
	for i := range p {
		p[i] = 2e7 + 2e5*float32(math.Sin(float64(i)*1.3))
	}
	return p
}

func TestPartEngineBitIdenticalToSerial(t *testing.T) {
	// The persistent engine must equal the serial cell-based sweep
	// bit-for-bit for every builder, across part counts 1–8, through a
	// multi-application perturbation schedule. CI additionally runs this
	// under -race, which verifies the phase barriers.
	fl := physics.DefaultFluid()
	const apps = 4
	for name, u := range engineFixtures(t) {
		p := enginePressure(u)
		serial, err := RunCellBasedApps(u, fl, p, apps)
		if err != nil {
			t.Fatal(err)
		}
		for _, levels := range []int{0, 1, 2, 3} {
			part, err := RCB(u, levels)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				e, err := NewPartEngine(u, part, fl, EngineOptions{Apps: apps, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run(p)
				e.Close()
				if err != nil {
					t.Fatal(err)
				}
				for i := range serial {
					if res.Residual[i] != serial[i] {
						t.Fatalf("%s parts=%d workers=%d: residual[%d] differs: %g vs %g",
							name, part.NumParts, workers, i, res.Residual[i], serial[i])
					}
				}
			}
		}
	}
}

func TestPartEngineRunRepeatable(t *testing.T) {
	// Run restarts from the given field: two runs of one engine must agree
	// exactly (persistent state fully reloaded, counters reset).
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	p := enginePressure(u)

	// The one application plan perturbs applications after the first only:
	// a one-application run leaves the resident field the loaded field, bit
	// for bit, and its residual is the serial sweep of that field.
	one, err := NewPartEngine(u, part, fl, EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	got, err := one.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ComputeResidualCellBased(u, fl, p)
	if err != nil {
		t.Fatal(err)
	}
	for me, ps := range one.l.parts {
		for i, g := range ps.globalOf {
			if one.parts[me].pres[i] != p[g] {
				t.Fatalf("application 0 perturbed part %d's copy of cell %d", me, g)
			}
		}
	}
	for i := range want {
		if got.Residual[i] != want[i] {
			t.Fatalf("one-application residual[%d] differs from the serial sweep", i)
		}
	}

	e, err := NewPartEngine(u, part, fl, EngineOptions{Apps: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	first, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Residual {
		if first.Residual[i] != second.Residual[i] {
			t.Fatalf("rerun diverged at cell %d", i)
		}
	}
	if first.Comm != second.Comm {
		t.Fatalf("rerun comm counters diverged: %+v vs %+v", first.Comm, second.Comm)
	}
}

func TestPartEngineWorkingSetCompact(t *testing.T) {
	// The satellite fix: per-part memory must be O(owned + halo), not
	// O(NumCells × parts). Assert the actual array lengths of every part.
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(u, 3) // 8 parts
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPartEngine(u, part, physics.DefaultFluid(), EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	totalResident := 0
	for me := 0; me < part.NumParts; me++ {
		ps, ep := e.l.parts[me], e.parts[me]
		owned, halo := ps.nOwned, ps.nHalo
		if owned != len(part.Owned[me]) {
			t.Errorf("part %d: owned %d, partition says %d", me, owned, len(part.Owned[me]))
		}
		if halo != len(part.halo[me]) {
			t.Errorf("part %d: halo %d, partition says %d", me, halo, len(part.halo[me]))
		}
		resident := owned + halo
		if len(ep.pres) != resident || len(ep.elev) != resident || len(ps.globalOf) != resident {
			t.Errorf("part %d: field lengths pres=%d elev=%d globalOf=%d, want owned+halo=%d",
				me, len(ep.pres), len(ep.elev), len(ps.globalOf), resident)
		}
		if len(ep.res) != owned {
			t.Errorf("part %d: residual length %d, want owned=%d", me, len(ep.res), owned)
		}
		if resident >= u.NumCells {
			t.Errorf("part %d: working set %d not smaller than the %d-cell mesh — renumbering not compact",
				me, resident, u.NumCells)
		}
		totalResident += resident
	}
	// Across all parts the residency is cells + halo copies — nowhere near
	// the prototype's parts × NumCells.
	wantTotal := u.NumCells
	for me := 0; me < part.NumParts; me++ {
		wantTotal += len(part.halo[me])
	}
	if totalResident != wantTotal {
		t.Errorf("total resident cells %d, want cells+halos=%d", totalResident, wantTotal)
	}
	if totalResident >= part.NumParts*u.NumCells {
		t.Errorf("total resident cells %d is O(cells × parts) — the prototype's footprint", totalResident)
	}
}

func TestPartEngineSteadyStateExchangeAllocFree(t *testing.T) {
	// The acceptance check: once the engine is warm, a full application step
	// (perturb, pack+send, recv+compute) performs zero allocations — the
	// exchange runs entirely through precompiled plans and persistent
	// buffers.
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPartEngine(u, part, physics.DefaultFluid(), EngineOptions{Apps: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(enginePressure(u)); err != nil { // warm-up: load + 2 apps
		t.Fatal(err)
	}
	// Both arms of the one plan: application 0 (no perturbation) and a later
	// one.
	for _, app := range []int{0, 1} {
		allocs := testing.AllocsPerRun(50, func() {
			if err := e.step(app); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state application step (app %d) allocates %.1f objects, want 0", app, allocs)
		}
	}
}

func TestPartEngineCommCounters(t *testing.T) {
	// Halo words and messages must equal the partition's static plan sizes
	// times the application count — the §4 communication volume accounting:
	// nothing at one part, and more cut faces at every bisection level.
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	const apps = 5
	var prevWords uint64
	for levels := 0; levels <= 2; levels++ {
		part, err := RCB(u, levels)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewPartEngine(u, part, physics.DefaultFluid(), EngineOptions{Apps: apps})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(enginePressure(u))
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		wantWords, wantMsgs := cutFaceComm(u, part)
		wantWords *= apps
		wantMsgs *= apps
		if res.Comm.HaloWords != wantWords || res.Comm.Messages != wantMsgs {
			t.Errorf("parts=%d: comm counters {words %d, msgs %d}, want {%d, %d}",
				part.NumParts, res.Comm.HaloWords, res.Comm.Messages, wantWords, wantMsgs)
		}
		if levels == 0 && (res.Comm.HaloWords != 0 || res.Comm.Messages != 0) {
			t.Errorf("1-part run reports communication: %+v", res.Comm)
		}
		if levels > 0 && res.Comm.HaloWords <= prevWords {
			t.Errorf("halo words did not grow with parts: %d at %d parts, %d at half as many",
				res.Comm.HaloWords, part.NumParts, prevWords)
		}
		prevWords = res.Comm.HaloWords
		if res.Apps != apps || res.NumCells != u.NumCells {
			t.Errorf("result echo wrong: %+v", res)
		}
	}
}

func TestPartEngineValidation(t *testing.T) {
	u, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	if _, err := NewPartEngine(u, part, fl, EngineOptions{Apps: -1}); err == nil {
		t.Error("negative applications accepted")
	}
	if _, err := NewPartEngine(u, part, fl, EngineOptions{Workers: -2}); err == nil {
		t.Error("negative workers accepted")
	}
	other, _ := NewRadialMesh(RadialOptions{Rings: 3, BaseSectors: 4, R0: 1, DR: 2, Dz: 2, PermMD: 50})
	if _, err := NewPartEngine(other, part, fl, EngineOptions{}); err == nil {
		t.Error("partition of a different mesh accepted")
	}
	e, err := NewPartEngine(u, part, fl, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(make([]float32, 3)); err == nil {
		t.Error("wrong-length pressure accepted")
	}
}

// benchRadial builds the 15360-cell benchmark mesh.
func benchRadial(b testing.TB) *Mesh {
	b.Helper()
	u, err := NewRadialMesh(RadialOptions{
		Rings: 64, BaseSectors: 64, RefineEvery: 16, R0: 1, DR: 4, Dz: 4, PermMD: 200,
	})
	if err != nil {
		b.Fatal(err)
	}
	return u
}

// BenchmarkUmeshEngineStep measures one steady-state application of the
// partitioned engine (4 parts), against BenchmarkUmeshSerialSweep.
func BenchmarkUmeshEngineStep(b *testing.B) {
	u := benchRadial(b)
	part, err := RCB(u, 2)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewPartEngine(u, part, physics.DefaultFluid(), EngineOptions{Apps: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	p := enginePressure(u)
	if _, err := e.Run(p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.step(1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(u.NumCells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

// BenchmarkUmeshSerialSweep is the serial cell-based reference the engine's
// per-application cost compares against.
func BenchmarkUmeshSerialSweep(b *testing.B) {
	u := benchRadial(b)
	fl := physics.DefaultFluid()
	p := enginePressure(u)
	if _, err := ComputeResidualCellBased(u, fl, p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeResidualCellBased(u, fl, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(u.NumCells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}
