package umesh

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
)

func structuredFixture(t *testing.T, d mesh.Dims) (*mesh.Mesh, *Mesh) {
	t.Helper()
	sm, err := mesh.BuildDefault(d)
	if err != nil {
		t.Fatal(err)
	}
	um, err := FromStructured(sm, refflux.FacesAll)
	if err != nil {
		t.Fatal(err)
	}
	return sm, um
}

func TestFromStructuredMatchesRefflux(t *testing.T) {
	// The unstructured representation of a structured mesh must reproduce
	// the structured reference residual exactly (same faces, same math).
	sm, um := structuredFixture(t, mesh.Dims{Nx: 7, Ny: 6, Nz: 4})
	fl := physics.DefaultFluid()
	p := sm.Pressure32()
	want, err := refflux.ComputeResidual(sm, fl, p, refflux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComputeResidualCellBased(um, fl, p)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for _, w := range want {
		if a := math.Abs(w); a > scale {
			scale = a
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*scale {
			t.Fatalf("residual[%d]: unstructured %g vs structured %g", i, got[i], want[i])
		}
	}
}

func TestFaceBasedMatchesCellBased(t *testing.T) {
	_, um := structuredFixture(t, mesh.Dims{Nx: 6, Ny: 5, Nz: 3})
	fl := physics.DefaultFluid()
	p := make([]float32, um.NumCells)
	for i := range p {
		p[i] = 2e7 + 1e5*float32(math.Sin(float64(i)))
	}
	face, err := ComputeResidual(um, fl, p)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := ComputeResidualCellBased(um, fl, p)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for _, v := range face {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for i := range face {
		if math.Abs(face[i]-cell[i]) > 1e-10*scale {
			t.Fatalf("sweep mismatch at %d: %g vs %g", i, face[i], cell[i])
		}
	}
}

func TestFaceBasedConservesExactly(t *testing.T) {
	_, um := structuredFixture(t, mesh.Dims{Nx: 5, Ny: 5, Nz: 3})
	fl := physics.DefaultFluid()
	p := make([]float32, um.NumCells)
	for i := range p {
		p[i] = 1.8e7 + 5e5*float32(math.Cos(float64(3*i)))
	}
	res, err := ComputeResidual(um, fl, p)
	if err != nil {
		t.Fatal(err)
	}
	sum, scale := 0.0, 0.0
	for _, r := range res {
		sum += r
		scale += math.Abs(r)
	}
	if scale == 0 {
		t.Fatal("degenerate field")
	}
	if math.Abs(sum) > 1e-12*scale {
		t.Errorf("Σ residual = %g (scale %g)", sum, scale)
	}
}

func TestJitterPreservesConservationAndChangesGeometry(t *testing.T) {
	_, um := structuredFixture(t, mesh.Dims{Nx: 6, Ny: 6, Nz: 3})
	before := append([]Face(nil), um.Faces...)
	if err := um.Jitter(0.3, 42); err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range before {
		if um.Faces[i].Trans != before[i].Trans {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("jitter changed no transmissibility")
	}
	fl := physics.DefaultFluid()
	p := make([]float32, um.NumCells)
	for i := range p {
		p[i] = 2e7 + 1e5*float32(math.Sin(float64(i)*0.37))
	}
	res, err := ComputeResidual(um, fl, p)
	if err != nil {
		t.Fatal(err)
	}
	sum, scale := 0.0, 0.0
	for _, r := range res {
		sum += r
		scale += math.Abs(r)
	}
	if math.Abs(sum) > 1e-12*scale {
		t.Errorf("jittered mesh broke conservation: Σ = %g", sum)
	}
	// Determinism.
	_, um2 := structuredFixture(t, mesh.Dims{Nx: 6, Ny: 6, Nz: 3})
	um2.Jitter(0.3, 42)
	for i := range um.Faces {
		if um.Faces[i] != um2.Faces[i] {
			t.Fatal("jitter not deterministic")
		}
	}
}

func TestJitterValidation(t *testing.T) {
	_, um := structuredFixture(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 2})
	if err := um.Jitter(0.6, 1); err == nil {
		t.Error("oversized jitter accepted")
	}
	if err := um.Jitter(-0.1, 1); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestRadialMeshIrregularTopology(t *testing.T) {
	um, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Refinement boundaries must create cells with more neighbors than any
	// structured 2D grid (4): the §9 "arbitrary topology" evidence.
	if um.MaxDegree() <= 4 {
		t.Errorf("max degree %d — refinement produced no irregular cells", um.MaxDegree())
	}
	// Degrees vary.
	degs := map[int]int{}
	for c := 0; c < um.NumCells; c++ {
		degs[um.Degree(c)]++
	}
	if len(degs) < 2 {
		t.Errorf("all cells share one degree: %v", degs)
	}
}

func TestRadialMeshWellDrivenFlow(t *testing.T) {
	um, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	fl.Gravity = 0 // single layer, purely radial
	p := make([]float32, um.NumCells)
	for i := range p {
		p[i] = 2e7
	}
	p[um.WellIndex()] = 2.2e7 // well overpressure
	res, err := ComputeResidual(um, fl, p)
	if err != nil {
		t.Fatal(err)
	}
	if res[um.WellIndex()] >= 0 {
		t.Errorf("well cell residual %g — overpressured well should expel mass", res[um.WellIndex()])
	}
	sum, scale := 0.0, 0.0
	for _, r := range res {
		sum += r
		scale += math.Abs(r)
	}
	if math.Abs(sum) > 1e-12*scale {
		t.Errorf("radial mesh conservation broken: Σ = %g", sum)
	}
}

func TestRadialValidation(t *testing.T) {
	bad := DefaultRadialOptions()
	bad.Rings = 1
	if _, err := NewRadialMesh(bad); err == nil {
		t.Error("1-ring mesh accepted")
	}
	bad = DefaultRadialOptions()
	bad.BaseSectors = 2
	if _, err := NewRadialMesh(bad); err == nil {
		t.Error("2-sector mesh accepted")
	}
	bad = DefaultRadialOptions()
	bad.DR = 0
	if _, err := NewRadialMesh(bad); err == nil {
		t.Error("zero ring thickness accepted")
	}
}

func TestRCBPartitionBalanced(t *testing.T) {
	_, um := structuredFixture(t, mesh.Dims{Nx: 8, Ny: 8, Nz: 4})
	p, err := RCB(um, 3) // 8 parts
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts != 8 {
		t.Fatalf("parts = %d", p.NumParts)
	}
	want := um.NumCells / 8
	for i, owned := range p.Owned {
		if len(owned) < want-1 || len(owned) > want+1 {
			t.Errorf("part %d owns %d cells, want ≈%d", i, len(owned), want)
		}
	}
	// Every cell owned exactly once.
	count := make([]int, um.NumCells)
	for _, owned := range p.Owned {
		for _, c := range owned {
			count[c]++
		}
	}
	for c, n := range count {
		if n != 1 {
			t.Fatalf("cell %d owned %d times", c, n)
		}
	}
}

func TestRCBValidation(t *testing.T) {
	_, um := structuredFixture(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 1})
	if _, err := RCB(um, 17); err == nil {
		t.Error("17 levels accepted")
	}
	if _, err := RCB(um, 5); err == nil {
		t.Error("more parts than cells accepted")
	}
}

// partitionedResidual is one application of Algorithm 1 on the partitioned
// engine.
func partitionedResidual(t *testing.T, u *Mesh, part *Partition, fl physics.Fluid, p []float32) []float64 {
	t.Helper()
	e, err := NewPartEngine(u, part, fl, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return res.Residual
}

func TestPartitionedMatchesSerial(t *testing.T) {
	for _, levels := range []int{0, 1, 2, 3} {
		_, um := structuredFixture(t, mesh.Dims{Nx: 8, Ny: 6, Nz: 3})
		if err := um.Jitter(0.2, 7); err != nil {
			t.Fatal(err)
		}
		part, err := RCB(um, levels)
		if err != nil {
			t.Fatal(err)
		}
		fl := physics.DefaultFluid()
		p := make([]float32, um.NumCells)
		for i := range p {
			p[i] = 2e7 + 2e5*float32(math.Sin(float64(i)*1.3))
		}
		serial, err := ComputeResidualCellBased(um, fl, p)
		if err != nil {
			t.Fatal(err)
		}
		dist := partitionedResidual(t, um, part, fl, p)
		for i := range serial {
			if serial[i] != dist[i] {
				t.Fatalf("levels=%d: residual[%d] differs: %g vs %g", levels, i, serial[i], dist[i])
			}
		}
	}
}

func TestPartitionedRadialMesh(t *testing.T) {
	um, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := RCB(um, 2)
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	fl.Gravity = 0
	p := make([]float32, um.NumCells)
	for i := range p {
		p[i] = 2e7 + 1e5*float32(math.Cos(float64(i)))
	}
	serial, err := ComputeResidualCellBased(um, fl, p)
	if err != nil {
		t.Fatal(err)
	}
	dist := partitionedResidual(t, um, part, fl, p)
	for i := range serial {
		if serial[i] != dist[i] {
			t.Fatalf("radial partitioned mismatch at %d", i)
		}
	}
	// Halo volume sanity: every part moves something, and far less than the
	// whole mesh.
	for me := 0; me < part.NumParts; me++ {
		h := part.HaloCells(me)
		if h == 0 {
			t.Errorf("part %d has no halo — partition degenerate", me)
		}
		if h >= um.NumCells {
			t.Errorf("part %d halo %d not smaller than mesh", me, h)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	_, um := structuredFixture(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 2})
	um.Faces[0].B = um.Faces[0].A
	if err := um.Validate(); err == nil {
		t.Error("self-face accepted")
	}
	_, um = structuredFixture(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 2})
	um.Faces[0].Trans = -1
	if err := um.Validate(); err == nil {
		t.Error("negative transmissibility accepted")
	}
	_, um = structuredFixture(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 2})
	um.Faces[0].A = 10_000
	if err := um.Validate(); err == nil {
		t.Error("out-of-range face accepted")
	}
}

func TestAntisymmetryProperty(t *testing.T) {
	// quick-check: for random pressure fields on the radial mesh, the
	// face-based residual conserves mass and the two sweeps agree.
	um, err := NewRadialMesh(RadialOptions{Rings: 5, BaseSectors: 6, RefineEvery: 2, R0: 1, DR: 4, Dz: 3, PermMD: 100})
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	fl.Gravity = 0
	f := func(seed uint16) bool {
		p := make([]float32, um.NumCells)
		for i := range p {
			p[i] = 2e7 + 1e5*float32(math.Sin(float64(int(seed)+i)*0.77))
		}
		face, err := ComputeResidual(um, fl, p)
		if err != nil {
			return false
		}
		cell, err := ComputeResidualCellBased(um, fl, p)
		if err != nil {
			return false
		}
		sum, scale := 0.0, 0.0
		for i := range face {
			sum += face[i]
			scale += math.Abs(face[i])
			if math.Abs(face[i]-cell[i]) > 1e-9*(math.Abs(face[i])+1) {
				return false
			}
		}
		return scale == 0 || math.Abs(sum) <= 1e-11*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
