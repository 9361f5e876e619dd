package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
)

func testMesh(t *testing.T, d mesh.Dims) *mesh.Mesh {
	t.Helper()
	m, err := mesh.BuildDefault(d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testOpts(apps int) Options {
	o := DefaultOptions(apps)
	o.RecvTimeout = 10 * time.Second
	return o
}

func TestFlatMatchesReference(t *testing.T) {
	// The float32 dataflow engine with the linearized density must agree
	// with the float64 reference (same density model) to float32 tolerance.
	m := testMesh(t, mesh.Dims{Nx: 8, Ny: 7, Nz: 6})
	fl := physics.DefaultFluid()
	res, err := RunFlat(m, fl, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refflux.ComputeResidual(m, fl.WithModel(physics.DensityLinear), m.Pressure32(), refflux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResidualsClose(t, res.Residual, ref, 2e-3)
}

func assertResidualsClose(t *testing.T, got []float32, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch %d vs %d", len(got), len(want))
	}
	scale := 0.0
	for _, w := range want {
		if a := math.Abs(w); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		t.Fatal("reference residual is all zero — degenerate comparison")
	}
	worst, worstIdx := 0.0, -1
	for i := range got {
		diff := math.Abs(float64(got[i]) - want[i])
		if diff/scale > worst {
			worst, worstIdx = diff/scale, i
		}
	}
	if worst > tol {
		t.Errorf("residual mismatch at cell %d: got %g, want %g (scaled err %g > %g)",
			worstIdx, got[worstIdx], want[worstIdx], worst, tol)
	}
}

func TestFabricMatchesFlatBitExact(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 6, Ny: 5, Nz: 4})
	fl := physics.DefaultFluid()
	for _, apps := range []int{1, 3} {
		flat, err := RunFlat(m, fl, testOpts(apps))
		if err != nil {
			t.Fatal(err)
		}
		fab, err := RunFabric(m, fl, testOpts(apps))
		if err != nil {
			t.Fatal(err)
		}
		for i := range flat.Residual {
			if flat.Residual[i] != fab.Residual[i] {
				t.Fatalf("apps=%d: residual[%d] differs: flat %g vs fabric %g",
					apps, i, flat.Residual[i], fab.Residual[i])
			}
		}
		if flat.Counters != fab.Counters {
			t.Errorf("apps=%d: counters differ:\nflat   %+v\nfabric %+v", apps, flat.Counters, fab.Counters)
		}
	}
}

func TestFabricMatchesReferenceMultiApp(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 5, Ny: 5, Nz: 5})
	fl := physics.DefaultFluid()
	res, err := RunFabric(m, fl, testOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	p := m.Pressure32()
	ref, err := refflux.Run(m, fl.WithModel(physics.DensityLinear), p, 4, refflux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResidualsClose(t, res.Residual, ref, 2e-3)
}

func TestTable4PerCellCounts(t *testing.T) {
	// The centerpiece measurement: an interior PE must reproduce Table 4
	// exactly — 60 FMUL, 40 FSUB, 10 FNEG, 10 FADD, 10 FMA, 16 FMOV,
	// 406 loads+stores, 16 fabric loads, 140 FLOPs per cell.
	m := testMesh(t, mesh.Dims{Nx: 5, Ny: 5, Nz: 7})
	res, err := RunFabric(m, physics.DefaultFluid(), testOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	pc := res.Interior
	if pc == nil {
		t.Fatal("no interior PE measured")
	}
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"FMUL", pc.FMUL, 60},
		{"FSUB", pc.FSUB, 40},
		{"FNEG", pc.FNEG, 10},
		{"FADD", pc.FADD, 10},
		{"FMA", pc.FMA, 10},
		{"FMOV", pc.FMOV, 16},
		{"mem accesses", pc.MemAccesses, 406},
		{"fabric loads", pc.FabricLoads, 16},
		{"FLOPs", pc.Flops, 140},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("per-cell %s = %g, want %g (Table 4)", c.name, c.got, c.want)
		}
	}
	if ai := pc.AIMemory(); math.Abs(ai-0.0862) > 0.0005 {
		t.Errorf("memory AI = %.4f, want 0.0862 (§7.3)", ai)
	}
	if ai := pc.AIFabric(); ai != 2.1875 {
		t.Errorf("fabric AI = %g, want 2.1875 (§7.3)", ai)
	}
}

func TestMassConservation(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 6, Ny: 6, Nz: 5})
	res, err := RunFlat(m, physics.DefaultFluid(), testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	sum, scale := 0.0, 0.0
	for _, r := range res.Residual {
		sum += float64(r)
		scale += math.Abs(float64(r))
	}
	if scale == 0 {
		t.Fatal("all residuals zero")
	}
	if math.Abs(sum) > 1e-5*scale {
		t.Errorf("Σ residual = %g (scale %g): mass not conserved", sum, scale)
	}
}

func TestCommOnlyMode(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 4})
	opts := testOpts(2)
	opts.CommOnly = true
	res, err := RunFabric(m, physics.DefaultFluid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Residual {
		if r != 0 {
			t.Fatalf("comm-only residual[%d] = %g, want 0", i, r)
		}
	}
	if res.Counters.Flops() != 0 {
		t.Errorf("comm-only performed %d FLOPs", res.Counters.Flops())
	}
	if res.Counters.FMOV == 0 || res.Counters.FabricLoads == 0 {
		t.Error("comm-only moved no data")
	}
	// Same communication volume as the full run (Table 3's premise).
	full, err := RunFabric(m, physics.DefaultFluid(), testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.FabricLoads != full.Counters.FabricLoads {
		t.Errorf("comm-only fabric loads %d != full run %d",
			res.Counters.FabricLoads, full.Counters.FabricLoads)
	}
}

func TestDiagonalsOffAblation(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 5, Ny: 5, Nz: 4})
	opts := testOpts(1)
	opts.Diagonals = false
	res, err := RunFabric(m, physics.DefaultFluid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// 6 faces per cell: 36 FMUL, 8 FMOV (4 neighbors × 2 values).
	pc := res.Interior
	if pc.FMUL != 36 || pc.FMOV != 8 {
		t.Errorf("cardinal-only per-cell FMUL=%g FMOV=%g, want 36/8", pc.FMUL, pc.FMOV)
	}
	// Must match the 6-face reference.
	ref, err := refflux.ComputeResidual(m, physics.DefaultFluid().WithModel(physics.DensityLinear),
		m.Pressure32(), refflux.Options{Faces: refflux.FacesCardinal})
	if err != nil {
		t.Fatal(err)
	}
	assertResidualsClose(t, res.Residual, ref, 2e-3)
}

func TestScalarAblationBitIdentical(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 5})
	fl := physics.DefaultFluid()
	vec, err := RunFlat(m, fl, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(1)
	opts.Vectorized = false
	sc, err := RunFlat(m, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec.Residual {
		if vec.Residual[i] != sc.Residual[i] {
			t.Fatalf("scalar/vector residual differs at %d", i)
		}
	}
	if sc.Counters.Flops() != vec.Counters.Flops() {
		t.Error("scalar mode changed FLOP count")
	}
	if sc.Counters.Issues <= vec.Counters.Issues {
		t.Errorf("scalar issues %d not greater than vector issues %d",
			sc.Counters.Issues, vec.Counters.Issues)
	}
}

func TestBufferReuseAblation(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 6})
	fl := physics.DefaultFluid()
	reuse, err := RunFlat(m, fl, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(1)
	opts.BufferReuse = false
	naive, err := RunFlat(m, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reuse.Residual {
		if reuse.Residual[i] != naive.Residual[i] {
			t.Fatalf("buffer discipline changed the residual at %d", i)
		}
	}
	if naive.MemStats.HighWaterWords <= reuse.MemStats.HighWaterWords {
		t.Errorf("naive high water %d not above reuse %d",
			naive.MemStats.HighWaterWords, reuse.MemStats.HighWaterWords)
	}
	// Footprint formula must match the allocator's observation.
	wantReuse := WordsPerZ(true)*6 + FixedWords
	if reuse.MemStats.HighWaterWords != wantReuse {
		t.Errorf("reuse high water %d, want %d", reuse.MemStats.HighWaterWords, wantReuse)
	}
	wantNaive := WordsPerZ(false)*6 + FixedWords
	if naive.MemStats.HighWaterWords != wantNaive {
		t.Errorf("naive high water %d, want %d", naive.MemStats.HighWaterWords, wantNaive)
	}
}

func TestPaperNzCapacity(t *testing.T) {
	// With the CS-2's 12288-word PEs, buffer reuse admits the paper's 246
	// layers and the naive discipline does not — the §5.3.1 claim.
	const memWords = 12288
	maxReuse := (memWords - FixedWords) / WordsPerZ(true)
	maxNaive := (memWords - FixedWords) / WordsPerZ(false)
	if maxReuse < 246 {
		t.Errorf("buffer reuse admits only Nz=%d < 246", maxReuse)
	}
	if maxNaive >= 246 {
		t.Errorf("naive discipline admits Nz=%d ≥ 246 — ablation has no bite", maxNaive)
	}
}

func TestOutOfMemoryInjection(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 64})
	opts := testOpts(1)
	opts.MemWords = 512 // far below 44·64
	_, err := RunFlat(m, physics.DefaultFluid(), opts)
	if err == nil || !strings.Contains(err.Error(), "out of PE memory") {
		t.Fatalf("want out-of-memory error, got %v", err)
	}
	_, err = RunFabric(m, physics.DefaultFluid(), opts)
	if err == nil {
		t.Fatal("fabric engine accepted impossible memory budget")
	}
}

func TestOptionValidation(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 3})
	if _, err := RunFlat(m, physics.DefaultFluid(), Options{Apps: 0}); err == nil {
		t.Error("apps=0 accepted")
	}
	bad := physics.DefaultFluid()
	bad.Viscosity = 0
	if _, err := RunFlat(m, bad, testOpts(1)); err == nil {
		t.Error("invalid fluid accepted")
	}
}

func TestSingleColumnMesh(t *testing.T) {
	// 1×1 fabric: no in-plane neighbors at all; only vertical faces work.
	m := testMesh(t, mesh.Dims{Nx: 1, Ny: 1, Nz: 8})
	fl := physics.DefaultFluid()
	res, err := RunFabric(m, fl, testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refflux.Run(m, fl.WithModel(physics.DensityLinear), m.Pressure32(), 2, refflux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResidualsClose(t, res.Residual, ref, 2e-3)
	if res.Counters.FabricLoads != 0 {
		t.Error("1x1 mesh used the fabric")
	}
}

func TestMinimalPlaneMesh(t *testing.T) {
	// Nz = 1: vertical faces are all boundary; only in-plane physics.
	m := testMesh(t, mesh.Dims{Nx: 6, Ny: 4, Nz: 1})
	fl := physics.DefaultFluid()
	res, err := RunFabric(m, fl, testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refflux.Run(m, fl.WithModel(physics.DensityLinear), m.Pressure32(), 2, refflux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResidualsClose(t, res.Residual, ref, 2e-3)
}

func TestFabricTrafficAccounting(t *testing.T) {
	// Interior PE count n_i, edge effects aside: every PE sends its column
	// once per existing cardinal direction and forwards once per relay duty;
	// total ramp sends must equal the analytic count.
	d := mesh.Dims{Nx: 4, Ny: 3, Nz: 2}
	m := testMesh(t, d)
	res, err := RunFabric(m, physics.DefaultFluid(), testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	words := uint64(2 * d.Nz)
	// Cardinal sends: one per directed adjacency = 2·(#undirected XY edges).
	cardEdges := uint64((d.Nx-1)*d.Ny + d.Nx*(d.Ny-1))
	cardSends := 2 * cardEdges * words
	// Forwards: one per (received cardinal column, existing clockwise turn):
	// count analytically by iterating the mesh.
	// A column that arrived from a direction is forwarded to the neighbor one
	// clockwise turn on (§5.2.2): from the west it goes south, and so on.
	turn := map[mesh.Direction]mesh.Direction{
		mesh.West: mesh.South, mesh.South: mesh.East, mesh.East: mesh.North, mesh.North: mesh.West,
	}
	inside := func(x, y int) bool { return x >= 0 && x < d.Nx && y >= 0 && y < d.Ny }
	var forwards uint64
	for y := 0; y < d.Ny; y++ {
		for x := 0; x < d.Nx; x++ {
			for _, dir := range mesh.CardinalDirections {
				dx, dy, _ := dir.Offset()
				tx, ty, _ := turn[dir].Offset()
				if inside(x+dx, y+dy) && inside(x+tx, y+ty) {
					forwards += words
				}
			}
		}
	}
	want := cardSends + forwards
	if got := res.FabricTotals.SentFromRamp; got != want {
		t.Errorf("ramp sends = %d, want %d", got, want)
	}
	// Everything sent must be delivered: the static scheme has no multi-hop
	// router forwarding (relays are worker-level).
	if res.FabricTotals.Forwarded != 0 {
		t.Errorf("router-level forwards = %d, want 0", res.FabricTotals.Forwarded)
	}
	if res.FabricTotals.DeliveredToPE != want {
		t.Errorf("delivered = %d, want %d", res.FabricTotals.DeliveredToPE, want)
	}
}

func TestInteriorFMOVRequiresAllNeighbors(t *testing.T) {
	// A 3×3 mesh's center PE receives from all 8 neighbors; corners receive
	// from 3 (2 cardinal + 1 diagonal).
	m := testMesh(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 2})
	res, err := RunFabric(m, physics.DefaultFluid(), testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	// Total fabric loads: Σ over PEs of 2·Nz·(#in-plane neighbors).
	var nbrs int
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			for _, dir := range xyDirections {
				dx, dy, _ := dir.Offset()
				if x+dx >= 0 && x+dx < 3 && y+dy >= 0 && y+dy < 3 {
					nbrs++
				}
			}
		}
	}
	want := uint64(nbrs) * uint64(2*m.Dims.Nz)
	if res.Counters.FabricLoads != want {
		t.Errorf("fabric loads = %d, want %d", res.Counters.FabricLoads, want)
	}
}
