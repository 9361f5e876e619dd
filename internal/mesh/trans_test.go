package mesh

import (
	"math"
	"testing"
)

func TestTransmissibilitySymmetry(t *testing.T) {
	// Trans[d][K] == Trans[opp(d)][L] across every interior face, and every
	// interior face — cardinal, vertical and diagonal — carries a nonzero Υ.
	m := mustBuild(t, Dims{6, 5, 4}, DefaultGeoOptions())
	faces := 0
	for _, d := range AllDirections {
		for z := 0; z < m.Dims.Nz; z++ {
			for y := 0; y < m.Dims.Ny; y++ {
				for x := 0; x < m.Dims.Nx; x++ {
					k := m.Index(x, y, z)
					l, ok := m.Neighbor(x, y, z, d)
					if !ok {
						continue
					}
					if m.Trans[d][k] != m.Trans[d.Opposite()][l] {
						t.Fatalf("asymmetric transmissibility across the %s face of (%d,%d,%d): %g vs %g",
							d, x, y, z, m.Trans[d][k], m.Trans[d.Opposite()][l])
					}
					if m.Trans[d][k] != 0 {
						faces++
					}
				}
			}
		}
	}
	// Each face is seen from both sides: X, Y and Z faces plus two
	// diagonal faces per 2×2 block of a plane.
	nx, ny, nz := 6, 5, 4
	if want := 2 * ((nx-1)*ny*nz + nx*(ny-1)*nz + nx*ny*(nz-1) + 2*(nx-1)*(ny-1)*nz); faces != want {
		t.Errorf("%d nonzero directed faces, want %d", faces, want)
	}
}

func TestTransmissibilityBoundariesZero(t *testing.T) {
	m := mustBuild(t, Dims{4, 4, 4}, DefaultGeoOptions())
	// West faces of x=0 column must be zero, etc.
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			if m.Trans[West][m.Index(0, y, z)] != 0 {
				t.Fatal("boundary west face nonzero")
			}
			if m.Trans[East][m.Index(3, y, z)] != 0 {
				t.Fatal("boundary east face nonzero")
			}
		}
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if m.Trans[Down][m.Index(x, y, 0)] != 0 || m.Trans[Up][m.Index(x, y, 3)] != 0 {
				t.Fatal("boundary vertical face nonzero")
			}
		}
	}
}

func TestHarmonicMean(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{2, 2, 2},
		{1, 3, 1.5},
		{0, 5, 0},
		{5, 0, 0},
	}
	for _, c := range cases {
		if got := harmonicMean(c.a, c.b); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("harmonicMean(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestUniformTransmissibilityValues(t *testing.T) {
	opts := DefaultGeoOptions()
	opts.Model = GeoUniform
	s := Spacing{Dx: 50, Dy: 40, Dz: 5}
	m, err := Build(Dims{4, 4, 4}, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := m.Perm[0]
	i := m.Index(1, 1, 1)
	wantX := (s.Dy * s.Dz / s.Dx) * k
	if got := m.Trans[East][i]; math.Abs(got-wantX)/wantX > 1e-12 {
		t.Errorf("east trans = %g, want %g", got, wantX)
	}
	wantY := (s.Dx * s.Dz / s.Dy) * k
	if got := m.Trans[South][i]; math.Abs(got-wantY)/wantY > 1e-12 {
		t.Errorf("south trans = %g, want %g", got, wantY)
	}
	wantZ := (s.Dx * s.Dy / s.Dz) * k
	if got := m.Trans[Up][i]; math.Abs(got-wantZ)/wantZ > 1e-12 {
		t.Errorf("up trans = %g, want %g", got, wantZ)
	}
	diagDist := math.Hypot(s.Dx, s.Dy)
	wantD := opts.Trans.DiagonalWeight * (math.Min(s.Dx, s.Dy) * s.Dz / diagDist) * k
	if got := m.Trans[NorthEast][i]; math.Abs(got-wantD)/wantD > 1e-12 {
		t.Errorf("diagonal trans = %g, want %g", got, wantD)
	}
}

func TestZeroDiagonalWeightDisablesDiagonals(t *testing.T) {
	opts := DefaultGeoOptions()
	opts.Trans.DiagonalWeight = 0
	m := mustBuild(t, Dims{5, 5, 3}, opts)
	for _, d := range DiagonalDirections {
		for _, v := range m.Trans[d] {
			if v != 0 {
				t.Fatalf("diagonal %v transmissibility nonzero with zero weight", d)
			}
		}
	}
}

func TestNegativeDiagonalWeightRejected(t *testing.T) {
	m, _ := New(smallDims(), DefaultSpacing())
	if err := m.ComputeTransmissibilities(TransOptions{DiagonalWeight: -1}); err == nil {
		t.Error("negative diagonal weight accepted")
	}
}

func TestNegativePermeabilityRejected(t *testing.T) {
	m, _ := New(smallDims(), DefaultSpacing())
	m.Perm[3] = -1
	if err := m.ComputeTransmissibilities(DefaultTransOptions()); err == nil {
		t.Error("negative permeability accepted")
	}
	m.Perm[3] = math.NaN()
	if err := m.ComputeTransmissibilities(DefaultTransOptions()); err == nil {
		t.Error("NaN permeability accepted")
	}
}

func TestSealingCellZeroesItsFaces(t *testing.T) {
	opts := DefaultGeoOptions()
	opts.Model = GeoUniform
	m := mustBuild(t, Dims{3, 3, 3}, opts)
	m.Perm[m.Index(1, 1, 1)] = 0
	if err := m.ComputeTransmissibilities(DefaultTransOptions()); err != nil {
		t.Fatal(err)
	}
	i := m.Index(1, 1, 1)
	for _, d := range AllDirections {
		if m.Trans[d][i] != 0 {
			t.Errorf("face %v of sealing cell nonzero", d)
		}
	}
	// And the neighbor's opposite face too.
	j := m.Index(0, 1, 1)
	if m.Trans[East][j] != 0 {
		t.Error("neighbor face into sealing cell nonzero")
	}
}
