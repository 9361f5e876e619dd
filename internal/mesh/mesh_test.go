package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

func smallDims() Dims { return Dims{Nx: 5, Ny: 4, Nz: 3} }

func mustBuild(t *testing.T, d Dims, opts GeoOptions) *Mesh {
	t.Helper()
	m, err := Build(d, DefaultSpacing(), opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestDimsValidate(t *testing.T) {
	bad := []Dims{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("Dims%v.Validate() = nil, want error", d)
		}
	}
	if err := (Dims{1, 1, 1}).Validate(); err != nil {
		t.Errorf("valid dims rejected: %v", err)
	}
}

func TestDimsCells(t *testing.T) {
	if got := (Dims{200, 200, 246}).Cells(); got != 9840000 {
		t.Errorf("Cells = %d, want 9840000 (paper Table 2 row 1)", got)
	}
	if got := (Dims{750, 994, 246}).Cells(); got != 183393180-286180+300 {
		// Direct arithmetic check instead: 750*994*246
		want := 750 * 994 * 246
		if got != want {
			t.Errorf("Cells = %d, want %d", got, want)
		}
	}
}

func TestNewRejectsBadSpacing(t *testing.T) {
	if _, err := New(smallDims(), Spacing{0, 1, 1}); err == nil {
		t.Error("zero Dx accepted")
	}
	if _, err := New(smallDims(), Spacing{1, 1, -3}); err == nil {
		t.Error("negative Dz accepted")
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	m, err := New(Dims{7, 5, 3}, DefaultSpacing())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for z := 0; z < 3; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 7; x++ {
				i := m.Index(x, y, z)
				if seen[i] {
					t.Fatalf("duplicate index %d for (%d,%d,%d)", i, x, y, z)
				}
				seen[i] = true
				gx, gy, gz := m.Coords(i)
				if gx != x || gy != y || gz != z {
					t.Fatalf("Coords(Index(%d,%d,%d)) = (%d,%d,%d)", x, y, z, gx, gy, gz)
				}
			}
		}
	}
	if len(seen) != 105 {
		t.Fatalf("covered %d indices, want 105", len(seen))
	}
}

func TestIndexXInnermost(t *testing.T) {
	m, _ := New(Dims{7, 5, 3}, DefaultSpacing())
	// Paper §6: X innermost, Z outermost.
	if m.Index(1, 0, 0)-m.Index(0, 0, 0) != 1 {
		t.Error("X stride is not 1")
	}
	if m.Index(0, 1, 0)-m.Index(0, 0, 0) != 7 {
		t.Error("Y stride is not Nx")
	}
	if m.Index(0, 0, 1)-m.Index(0, 0, 0) != 35 {
		t.Error("Z stride is not Nx*Ny")
	}
}

func TestDirectionOffsetsAndOpposites(t *testing.T) {
	for _, d := range AllDirections {
		dx, dy, dz := d.Offset()
		ox, oy, oz := d.Opposite().Offset()
		if dx != -ox || dy != -oy || dz != -oz {
			t.Errorf("%v: opposite offset mismatch", d)
		}
		if d.Opposite().Opposite() != d {
			t.Errorf("%v: double opposite is not identity", d)
		}
	}
}

func TestDirectionClassification(t *testing.T) {
	if len(CardinalDirections)+len(DiagonalDirections)+len(VerticalDirections) != int(NumDirections) {
		t.Fatal("direction class lists do not cover NumDirections")
	}
	for _, d := range CardinalDirections {
		if !d.IsCardinal() || d.IsDiagonal() || d.IsVertical() {
			t.Errorf("%v misclassified", d)
		}
	}
	for _, d := range DiagonalDirections {
		if !d.IsDiagonal() || d.IsCardinal() || d.IsVertical() {
			t.Errorf("%v misclassified", d)
		}
	}
	for _, d := range VerticalDirections {
		if !d.IsVertical() || d.IsCardinal() || d.IsDiagonal() {
			t.Errorf("%v misclassified", d)
		}
	}
}

func TestDirectionStrings(t *testing.T) {
	if West.String() != "west" || SouthEast.String() != "southeast" || Up.String() != "up" {
		t.Error("direction names wrong")
	}
	if Direction(-1).String() == "" || Direction(99).String() == "" {
		t.Error("out-of-range directions should render")
	}
}

func TestNeighborBoundaries(t *testing.T) {
	m, _ := New(smallDims(), DefaultSpacing())
	if _, ok := m.Neighbor(0, 0, 0, West); ok {
		t.Error("west neighbor of x=0 should not exist")
	}
	if _, ok := m.Neighbor(0, 0, 0, NorthWest); ok {
		t.Error("NW neighbor of corner should not exist")
	}
	if n, ok := m.Neighbor(0, 0, 0, East); !ok || n != m.Index(1, 0, 0) {
		t.Error("east neighbor wrong")
	}
	if n, ok := m.Neighbor(2, 2, 1, SouthEast); !ok || n != m.Index(3, 3, 1) {
		t.Error("SE neighbor wrong")
	}
	if n, ok := m.Neighbor(2, 2, 1, Up); !ok || n != m.Index(2, 2, 2) {
		t.Error("up neighbor wrong")
	}
}

func TestNeighborReciprocal(t *testing.T) {
	m, _ := New(smallDims(), DefaultSpacing())
	f := func(rx, ry, rz, rd uint8) bool {
		x := int(rx) % m.Dims.Nx
		y := int(ry) % m.Dims.Ny
		z := int(rz) % m.Dims.Nz
		d := Direction(int(rd) % int(NumDirections))
		l, ok := m.Neighbor(x, y, z, d)
		if !ok {
			return true
		}
		lx, ly, lz := m.Coords(l)
		back, ok2 := m.Neighbor(lx, ly, lz, d.Opposite())
		return ok2 && back == m.Index(x, y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInteriorCell(t *testing.T) {
	m, _ := New(smallDims(), DefaultSpacing())
	if m.InteriorCell(0, 1, 1) || m.InteriorCell(4, 1, 1) || m.InteriorCell(1, 0, 1) || m.InteriorCell(1, 1, 0) {
		t.Error("boundary cells classified interior")
	}
	if !m.InteriorCell(1, 1, 1) || !m.InteriorCell(3, 2, 1) {
		t.Error("interior cells classified boundary")
	}
	// Every interior cell must have all 10 neighbors.
	for z := 0; z < m.Dims.Nz; z++ {
		for y := 0; y < m.Dims.Ny; y++ {
			for x := 0; x < m.Dims.Nx; x++ {
				if !m.InteriorCell(x, y, z) {
					continue
				}
				for _, d := range AllDirections {
					if _, ok := m.Neighbor(x, y, z, d); !ok {
						t.Fatalf("interior cell (%d,%d,%d) missing %v neighbor", x, y, z, d)
					}
				}
			}
		}
	}
}

func TestFloat32Views(t *testing.T) {
	m := mustBuild(t, smallDims(), DefaultGeoOptions())
	p32 := m.Pressure32()
	if len(p32) != len(m.Pressure) {
		t.Fatal("length mismatch")
	}
	for i := range p32 {
		if p32[i] != float32(m.Pressure[i]) {
			t.Fatalf("Pressure32[%d] = %g, want %g", i, p32[i], float32(m.Pressure[i]))
		}
	}
	g := 9.80665
	gz := m.GravityElev32(g)
	for i := range gz {
		if gz[i] != float32(g*m.Elev[i]) {
			t.Fatalf("GravityElev32[%d] wrong", i)
		}
	}
}

func TestGeoModelStrings(t *testing.T) {
	if GeoUniform.String() != "uniform" || GeoLayered.String() != "layered" || GeoCCS.String() != "ccs" {
		t.Error("geomodel names wrong")
	}
	if GeoModel(9).String() == "" {
		t.Error("unknown geomodel should render")
	}
}

func TestBuildUnknownModelFails(t *testing.T) {
	opts := DefaultGeoOptions()
	opts.Model = GeoModel(77)
	if _, err := Build(smallDims(), DefaultSpacing(), opts); err == nil {
		t.Error("unknown geomodel accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := mustBuild(t, Dims{8, 8, 6}, DefaultGeoOptions())
	b := mustBuild(t, Dims{8, 8, 6}, DefaultGeoOptions())
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] || a.Pressure[i] != b.Pressure[i] || a.Elev[i] != b.Elev[i] {
			t.Fatalf("same seed produced different geomodels at cell %d", i)
		}
	}
	opts := DefaultGeoOptions()
	opts.Seed++
	c := mustBuild(t, Dims{8, 8, 6}, opts)
	same := true
	for i := range a.Perm {
		if a.Perm[i] != c.Perm[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical permeability fields")
	}
}

func TestCCSModelProperties(t *testing.T) {
	m := mustBuild(t, Dims{24, 24, 8}, DefaultGeoOptions())
	opts := DefaultGeoOptions()
	// Elevation decreases with the z index (deeper layers, z is height).
	i0, i1 := m.Index(3, 3, 0), m.Index(3, 3, 7)
	if m.Elev[i1] >= m.Elev[i0] {
		t.Error("deeper layer should have smaller elevation")
	}
	// Anticline: center column is shallower (higher) than corner at same z.
	ctr, cor := m.Index(12, 12, 0), m.Index(0, 0, 0)
	if m.Elev[ctr] <= m.Elev[cor] {
		t.Error("anticline crest should be shallower than flank")
	}
	// Well overpressure: the well column pressure exceeds plain hydrostatic.
	wx, wy := 24/3, 24/3
	wi := m.Index(wx, wy, 7)
	hydro := opts.SurfacePressure + opts.FluidDensity*9.80665*(-m.Elev[wi])
	if m.Pressure[wi] <= hydro {
		t.Error("injection well overpressure missing")
	}
	// Permeability stays positive and finite.
	for i, k := range m.Perm {
		if !(k > 0) || math.IsInf(k, 0) {
			t.Fatalf("perm[%d] = %g", i, k)
		}
	}
}

func TestLayeredContrast(t *testing.T) {
	opts := DefaultGeoOptions()
	opts.Model = GeoLayered
	m := mustBuild(t, Dims{4, 4, 16}, opts)
	// Max/min layer permeability contrast should be large (shale vs sand).
	mn, mx := math.Inf(1), 0.0
	for _, k := range m.Perm {
		mn = math.Min(mn, k)
		mx = math.Max(mx, k)
	}
	if mx/mn < 10 {
		t.Errorf("layer contrast %g too small", mx/mn)
	}
}

func TestPerturbPressure32Deterministic(t *testing.T) {
	a := []float32{1e7, 1.5e7, 2e7}
	b := []float32{1e7, 1.5e7, 2e7}
	PerturbPressure32(a, 3, 1000)
	PerturbPressure32(b, 3, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("perturbation not deterministic")
		}
	}
	c := []float32{1e7, 1.5e7, 2e7}
	PerturbPressure32(c, 4, 1000)
	if a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
		t.Error("different application index produced identical perturbation")
	}
}

func TestTotalPoreVolumePositive(t *testing.T) {
	m := mustBuild(t, smallDims(), DefaultGeoOptions())
	if v := m.TotalPoreVolume(); v <= 0 {
		t.Errorf("pore volume = %g", v)
	}
}

func TestMaxAbsPressure(t *testing.T) {
	m := mustBuild(t, smallDims(), DefaultGeoOptions())
	if m.MaxAbsPressure() < 1e7 {
		t.Errorf("max pressure %g implausibly low for 1.5 km depth", m.MaxAbsPressure())
	}
}

func TestPerturbColumn32MatchesPerturbDelta32(t *testing.T) {
	// Every strided column of a field, element for element, for several
	// applications: the hoisted phase term changes no bit.
	d := Dims{Nx: 5, Ny: 3, Nz: 7}
	step := d.Nx * d.Ny
	for _, app := range []int{0, 1, 2, 7, 999} {
		for first := 0; first < step; first++ {
			col, want := make([]float32, d.Nz), make([]float32, d.Nz)
			for z := range col {
				col[z] = 2e7 + float32(first*31+z)
				want[z] = col[z] + PerturbDelta32(app, first+z*step, 1000)
			}
			PerturbColumn32(col, app, first, step, 1000)
			for z := range col {
				if math.Float32bits(col[z]) != math.Float32bits(want[z]) {
					t.Fatalf("app %d column %d: element %d = %g, per-cell form gives %g", app, first, z, col[z], want[z])
				}
			}
		}
	}
	PerturbColumn32(nil, 3, 0, 1, 1000) // an empty column is a no-op
}
