package refflux

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/physics"
)

func buildTestMesh(t *testing.T, d mesh.Dims) *mesh.Mesh {
	t.Helper()
	m, err := mesh.BuildDefault(d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMassConservation(t *testing.T) {
	// With no-flow boundaries, Σ residual = 0 up to float64 rounding: every
	// interior face contributes F to one side and −F to the other.
	m := buildTestMesh(t, mesh.Dims{Nx: 10, Ny: 9, Nz: 6})
	fl := physics.DefaultFluid()
	for _, faces := range []FaceSet{FacesAll, FacesCardinal} {
		res, err := ComputeResidual(m, fl, m.Pressure32(), Options{Faces: faces})
		if err != nil {
			t.Fatal(err)
		}
		sum := SumResidual(res)
		scale := 0.0
		for _, r := range res {
			scale += math.Abs(r)
		}
		if scale == 0 {
			t.Fatalf("faces %v: all residuals are zero — degenerate test", faces)
		}
		if math.Abs(sum) > 1e-10*scale {
			t.Errorf("faces %v: Σ residual = %g (scale %g), want ~0", faces, sum, scale)
		}
	}
}

func TestUniformPressureNoGravityZeroResidual(t *testing.T) {
	opts := mesh.DefaultGeoOptions()
	opts.Model = mesh.GeoUniform
	m, err := mesh.Build(mesh.Dims{Nx: 6, Ny: 6, Nz: 4}, mesh.DefaultSpacing(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Pressure {
		m.Pressure[i] = 2e7
	}
	fl := physics.DefaultFluid()
	fl.Gravity = 0
	res, err := ComputeResidual(m, fl, m.Pressure32(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r != 0 {
			t.Fatalf("residual[%d] = %g, want exactly 0", i, r)
		}
	}
}

func TestHydrostaticEquilibriumIncompressible(t *testing.T) {
	// Incompressible fluid with hydrostatic pressure: ΔΦ = 0 on every face
	// (including diagonals), so all residuals vanish to rounding.
	opts := mesh.DefaultGeoOptions()
	opts.Model = mesh.GeoCCS // anticline: elevation varies in-plane
	m, err := mesh.Build(mesh.Dims{Nx: 8, Ny: 8, Nz: 5}, mesh.DefaultSpacing(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	fl.Compressibility = 0
	for i := range m.Pressure {
		m.Pressure[i] = 1e5 - fl.RhoRef*fl.Gravity*m.Elev[i]
	}
	// Use the float64 field directly (float32 narrowing would break the
	// exact balance); go through a float32 round-trip with a loose tolerance.
	p := m.Pressure32()
	res, err := ComputeResidual(m, fl, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Residual scale for a strongly perturbed field, for comparison.
	m2 := buildTestMesh(t, mesh.Dims{Nx: 8, Ny: 8, Nz: 5})
	resRef, _ := ComputeResidual(m2, physics.DefaultFluid(), m2.Pressure32(), Options{})
	scale := maxAbs(resRef)
	if scale == 0 {
		t.Fatal("reference scale is zero")
	}
	if got := maxAbs(res); got > 1e-3*scale {
		t.Errorf("hydrostatic residual %g not small vs scale %g", got, scale)
	}
}

func maxAbs(v []float64) float64 {
	mx := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

func TestSerialMatchesParallel(t *testing.T) {
	m := buildTestMesh(t, mesh.Dims{Nx: 12, Ny: 7, Nz: 9})
	fl := physics.DefaultFluid()
	p := m.Pressure32()
	serial, err := ComputeResidual(m, fl, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 100} {
		par, err := ComputeResidual(m, fl, p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("workers=%d: residual[%d] differs: %g vs %g", workers, i, serial[i], par[i])
			}
		}
	}
}

func TestCardinalSubsetOfAll(t *testing.T) {
	// With diagonal transmissibilities zeroed, FacesAll ≡ FacesCardinal.
	opts := mesh.DefaultGeoOptions()
	opts.Trans.DiagonalWeight = 0
	m, err := mesh.Build(mesh.Dims{Nx: 6, Ny: 6, Nz: 4}, mesh.DefaultSpacing(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	p := m.Pressure32()
	all, _ := ComputeResidual(m, fl, p, Options{Faces: FacesAll})
	card, _ := ComputeResidual(m, fl, p, Options{Faces: FacesCardinal})
	for i := range all {
		if all[i] != card[i] {
			t.Fatalf("residual[%d]: all=%g cardinal=%g", i, all[i], card[i])
		}
	}
}

func TestDiagonalsContributeWhenEnabled(t *testing.T) {
	m := buildTestMesh(t, mesh.Dims{Nx: 6, Ny: 6, Nz: 4})
	fl := physics.DefaultFluid()
	p := m.Pressure32()
	all, _ := ComputeResidual(m, fl, p, Options{Faces: FacesAll})
	card, _ := ComputeResidual(m, fl, p, Options{Faces: FacesCardinal})
	diff := false
	for i := range all {
		if all[i] != card[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("diagonal faces made no difference despite nonzero weight")
	}
}

func TestRunPerturbsBetweenApplications(t *testing.T) {
	m := buildTestMesh(t, mesh.Dims{Nx: 5, Ny: 5, Nz: 4})
	fl := physics.DefaultFluid()
	p1 := m.Pressure32()
	r1, err := Run(m, fl, p1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p3 := m.Pressure32()
	r3, err := Run(m, fl, p3, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1 {
		if r1[i] != r3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("3-application run produced identical residual to 1-application run")
	}
	// And the pressure vector must have been modified in place.
	orig := m.Pressure32()
	changed := false
	for i := range p3 {
		if p3[i] != orig[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("Run did not perturb the pressure vector")
	}
}

func TestRunRejectsBadApps(t *testing.T) {
	m := buildTestMesh(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 3})
	if _, err := Run(m, physics.DefaultFluid(), m.Pressure32(), 0, Options{}); err == nil {
		t.Error("apps=0 accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	m := buildTestMesh(t, mesh.Dims{Nx: 3, Ny: 3, Nz: 3})
	fl := physics.DefaultFluid()
	if _, err := ComputeResidual(m, fl, make([]float32, 5), Options{}); err == nil {
		t.Error("wrong pressure length accepted")
	}
	bad := fl
	bad.Viscosity = 0
	if _, err := ComputeResidual(m, bad, m.Pressure32(), Options{}); err == nil {
		t.Error("invalid fluid accepted")
	}
}

func TestFaceSetStrings(t *testing.T) {
	if FacesAll.String() != "all-10" || FacesCardinal.String() != "cardinal-6" {
		t.Error("face set names wrong")
	}
	if FaceSet(9).String() == "" {
		t.Error("unknown face set should render")
	}
	if len(FacesAll.Directions()) != 10 || len(FacesCardinal.Directions()) != 6 {
		t.Error("direction list lengths wrong")
	}
}

func TestResidualMatchesManualStencil(t *testing.T) {
	// Hand-compute one interior cell's residual and compare.
	m := buildTestMesh(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 4})
	fl := physics.DefaultFluid()
	p := m.Pressure32()
	res, err := ComputeResidual(m, fl, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, y, z := 2, 1, 2
	k := m.Index(x, y, z)
	want := 0.0
	for _, d := range mesh.AllDirections {
		l, ok := m.Neighbor(x, y, z, d)
		if !ok {
			continue
		}
		want += fl.FaceFlux(m.Trans[d][k], float64(p[k]), float64(p[l]), m.Elev[k], m.Elev[l])
	}
	if math.Abs(res[k]-want) > 1e-12*math.Abs(want) {
		t.Errorf("residual[%d] = %g, manual = %g", k, res[k], want)
	}
}

// SumResidual returns Σ residual — exactly zero in infinite precision for
// no-flow boundaries (every interior face contributes antisymmetric terms);
// in float64 it is zero to rounding. Tests assert this invariant.
func SumResidual(res []float64) float64 {
	s := 0.0
	for _, r := range res {
		s += r
	}
	return s
}
