package umesh

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
)

// structuredStencil is the pressure system of one backward-Euler step
// written in the structured mesh's own terms: accumulation V·φ_k·ρref·cf/Δt
// from the mesh's porosity, and rows that sweep (x, y, z) and sum the face
// conductances in direction order through Mesh.Neighbor. It shares no code
// with FromStructured, USystem or UHostOperator, which is what makes it their
// oracle on a converted mesh.
type structuredStencil struct {
	m     *mesh.Mesh
	dirs  []mesh.Direction
	lam   float64
	accum []float64
}

func newStructuredStencil(m *mesh.Mesh, fl physics.Fluid, dt float64, faces refflux.FaceSet) *structuredStencil {
	v := m.Spacing.Dx * m.Spacing.Dy * m.Spacing.Dz
	acc := make([]float64, m.Dims.Cells())
	for i := range acc {
		acc[i] = v * m.Porosity[i] * fl.RhoRef * fl.Compressibility / dt
	}
	return &structuredStencil{m: m, dirs: faces.Directions(), lam: fl.RhoRef / fl.Viscosity, accum: acc}
}

func (s *structuredStencil) Size() int { return s.m.Dims.Cells() }

// row visits cell k's in-grid neighbors in direction order with their
// conductances Υ·λ.
func (s *structuredStencil) row(x, y, z int, visit func(l int, w float64)) {
	k := s.m.Index(x, y, z)
	for _, dir := range s.dirs {
		if l, ok := s.m.Neighbor(x, y, z, dir); ok {
			visit(l, s.m.Trans[dir][k]*s.lam)
		}
	}
}

// Apply computes dst = A·x.
func (s *structuredStencil) Apply(dst, x []float64) error {
	d := s.m.Dims
	for zi := 0; zi < d.Nz; zi++ {
		for yi := 0; yi < d.Ny; yi++ {
			for xi := 0; xi < d.Nx; xi++ {
				k := s.m.Index(xi, yi, zi)
				flux := 0.0
				s.row(xi, yi, zi, func(l int, w float64) { flux += w * (x[l] - x[k]) })
				dst[k] = s.accum[k]*x[k] - flux
			}
		}
	}
	return nil
}

// Diagonal returns accumulation plus the row's conductances.
func (s *structuredStencil) Diagonal() []float64 {
	d := s.m.Dims
	diag := make([]float64, d.Cells())
	for zi := 0; zi < d.Nz; zi++ {
		for yi := 0; yi < d.Ny; yi++ {
			for xi := 0; xi < d.Nx; xi++ {
				k := s.m.Index(xi, yi, zi)
				sum := s.accum[k]
				s.row(xi, yi, zi, func(_ int, w float64) { sum += w })
				diag[k] = sum
			}
		}
	}
	return diag
}

// TestFromStructuredSystemMatchesStructuredStencil: the system of a
// converted structured mesh is the structured mesh's own. On the layered
// geomodel, where φ changes from layer to layer, the accumulation equals the
// structured formula bit for bit, and UHostOperator and USystem.Diagonal
// match the stencil to 1e-12 relative, with and without the diagonal faces
// (the rows sum in another order, so bit equality is not expected there).
func TestFromStructuredSystemMatchesStructuredStencil(t *testing.T) {
	geo := mesh.DefaultGeoOptions()
	geo.Model = mesh.GeoLayered
	m, err := mesh.Build(mesh.Dims{Nx: 7, Ny: 5, Nz: 6}, mesh.DefaultSpacing(), geo)
	if err != nil {
		t.Fatal(err)
	}
	if top, bottom := m.Porosity[m.Index(0, 0, 0)], m.Porosity[m.Index(0, 0, 5)]; top == bottom {
		t.Fatalf("fixture: porosity %g is the same in the top and bottom layers", top)
	}
	fl := physics.DefaultFluid()
	const dt = 3600.0
	close := func(what string, k int, got, want, scale float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*scale {
			t.Fatalf("%s[%d] = %g, structured stencil %g", what, k, got, want)
		}
	}
	for _, faces := range []refflux.FaceSet{refflux.FacesAll, refflux.FacesCardinal} {
		u, err := FromStructured(m, faces)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewUSystem(u, fl, dt, 0)
		if err != nil {
			t.Fatal(err)
		}
		st := newStructuredStencil(m, fl, dt, faces)
		for k, a := range sys.Accum {
			if math.Float64bits(a) != math.Float64bits(st.accum[k]) {
				t.Fatalf("%v: accumulation[%d] = %g, structured formula %g", faces, k, a, st.accum[k])
			}
		}
		want := st.Diagonal()
		for k, v := range sys.Diagonal() {
			close(faces.String()+" diagonal", k, v, want[k], math.Abs(want[k]))
		}
		n := u.NumCells
		got, ref := make([]float64, n), make([]float64, n)
		for seed := 0; seed < 3; seed++ {
			x := probeVector(n, seed)
			if err := (&UHostOperator{Sys: sys}).Apply(got, x); err != nil {
				t.Fatal(err)
			}
			if err := st.Apply(ref, x); err != nil {
				t.Fatal(err)
			}
			scale := 0.0
			for _, v := range ref {
				scale = max(scale, math.Abs(v))
			}
			for k := range got {
				close(faces.String()+" A·x", k, got[k], ref[k], scale)
			}
		}
	}
}
