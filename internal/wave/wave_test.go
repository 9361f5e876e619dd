package wave

import (
	"math"
	"strings"
	"testing"
)

func testMedium(t *testing.T, nx, ny int, theta float64) *Medium {
	t.Helper()
	m, err := NewUniformMedium(nx, ny, 10, 2000, 1400, theta)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testOptions(m *Medium, steps int) Options {
	return Options{
		Dt:     0.8 * m.MaxStableDt(),
		Steps:  steps,
		Source: Source{X: m.Nx / 2, Y: m.Ny / 2, Freq: 12, Amp: 1},
	}
}

func TestNewUniformMediumValidation(t *testing.T) {
	if _, err := NewUniformMedium(2, 5, 10, 2000, 1400, 0); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := NewUniformMedium(5, 5, 0, 2000, 1400, 0); err == nil {
		t.Error("zero dx accepted")
	}
	if _, err := NewUniformMedium(5, 5, 10, 1400, 2000, 0); err == nil {
		t.Error("vSlow > vFast accepted")
	}
}

func TestCFLValidation(t *testing.T) {
	m := testMedium(t, 16, 16, 0)
	opts := testOptions(m, 10)
	opts.Dt = 1.5 * m.MaxStableDt()
	if _, err := Simulate(m, opts); err == nil || !strings.Contains(err.Error(), "CFL") {
		t.Errorf("CFL violation not rejected: %v", err)
	}
	opts.Dt = 0
	if _, err := Simulate(m, opts); err == nil {
		t.Error("zero dt accepted")
	}
}

func TestSourceValidation(t *testing.T) {
	m := testMedium(t, 16, 16, 0)
	opts := testOptions(m, 10)
	opts.Source.X = 0 // boundary
	if _, err := Simulate(m, opts); err == nil {
		t.Error("boundary source accepted")
	}
	opts = testOptions(m, 10)
	opts.Source.Freq = 0
	if _, err := Simulate(m, opts); err == nil {
		t.Error("zero frequency accepted")
	}
	opts = testOptions(m, 0)
	if _, err := Simulate(m, opts); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestRickerShape(t *testing.T) {
	s := Source{Freq: 10, Amp: 2}
	// Peak amplitude at the delay time.
	if got := s.Ricker(1.2 / 10); math.Abs(got-2) > 1e-12 {
		t.Errorf("peak = %g, want 2", got)
	}
	// Decays to ~0 far from the peak.
	if got := s.Ricker(1.0); math.Abs(got) > 1e-6 {
		t.Errorf("tail = %g, want ≈0", got)
	}
}

func TestWavePropagates(t *testing.T) {
	m := testMedium(t, 32, 32, 0)
	res, err := Simulate(m, testOptions(m, 60))
	if err != nil {
		t.Fatal(err)
	}
	// The field is non-trivial and reached cells away from the source.
	if res.MaxAbs[len(res.MaxAbs)-1] == 0 {
		t.Fatal("wavefield is identically zero")
	}
	far := res.U[m.Index(m.Nx/2+10, m.Ny/2)]
	if far == 0 {
		t.Error("wave did not reach 10 cells from the source")
	}
}

func TestStabilityUnderCFL(t *testing.T) {
	// Long run at 0.8 CFL: the leapfrog field stays bounded.
	m := testMedium(t, 24, 24, 0.5)
	res, err := Simulate(m, testOptions(m, 400))
	if err != nil {
		t.Fatal(err)
	}
	peak := float32(0)
	for _, v := range res.MaxAbs {
		if v > peak {
			peak = v
		}
	}
	if last := res.MaxAbs[len(res.MaxAbs)-1]; last > 3*peak || last > 1e6 {
		t.Errorf("field growing: last %g vs peak %g", last, peak)
	}
}

func TestIsotropicSymmetry(t *testing.T) {
	// Isotropic medium (vFast = vSlow): the cross coefficient vanishes and
	// the wavefield is 4-fold symmetric about a centered source.
	m, err := NewUniformMedium(33, 33, 10, 1800, 1800, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(m, 50)
	opts.Source = Source{X: 16, Y: 16, Freq: 12, Amp: 1}
	res, err := Simulate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for d := 1; d <= 10; d++ {
		e := float64(res.U[m.Index(16+d, 16)])
		w := float64(res.U[m.Index(16-d, 16)])
		n := float64(res.U[m.Index(16, 16-d)])
		s := float64(res.U[m.Index(16, 16+d)])
		for _, v := range []float64{w, n, s} {
			if diff := math.Abs(e - v); diff > worst {
				worst = diff
			}
		}
	}
	scale := float64(res.MaxAbs[len(res.MaxAbs)-1])
	if worst > 1e-5*scale {
		t.Errorf("isotropic field asymmetric: worst %g vs scale %g", worst, scale)
	}
}

func TestTTIAnisotropyBreaksSymmetry(t *testing.T) {
	// A tilted anisotropic medium must produce different E-W vs N-S arrival
	// patterns — the reason diagonal neighbors are needed at all.
	m := testMedium(t, 33, 33, math.Pi/6)
	opts := testOptions(m, 60)
	opts.Source = Source{X: 16, Y: 16, Freq: 12, Amp: 1}
	res, err := Simulate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := 8
	e := res.U[m.Index(16+d, 16)]
	n := res.U[m.Index(16, 16-d)]
	scale := res.MaxAbs[len(res.MaxAbs)-1]
	if diff := math.Abs(float64(e - n)); diff < 1e-4*float64(scale) {
		t.Errorf("tilted TI field looks isotropic: |E−N| = %g", diff)
	}
}

func TestCrossTermZeroWhenUntilted(t *testing.T) {
	m := testMedium(t, 8, 8, 0)
	_, _, c := m.coefficients(1e-3)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("untilted cross coefficient c[%d] = %g, want 0", i, v)
		}
	}
	// Isotropic but tilted: also zero.
	iso, _ := NewUniformMedium(8, 8, 10, 1500, 1500, 0.9)
	_, _, c = iso.coefficients(1e-3)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("isotropic cross coefficient c[%d] = %g, want 0", i, v)
		}
	}
}

func TestFabricMatchesHostBitExact(t *testing.T) {
	// The paper's diagonal exchange carries the TTI cross term: the fabric
	// engine must reproduce the host engine exactly.
	m := testMedium(t, 12, 10, math.Pi/5)
	opts := testOptions(m, 25)
	opts.Source = Source{X: 5, Y: 4, Freq: 15, Amp: 1}
	host, err := simulateHost(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := simulateFabric(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range host.U {
		if host.U[i] != fab.U[i] {
			t.Fatalf("wavefield differs at %d: host %g vs fabric %g", i, host.U[i], fab.U[i])
		}
	}
	for s := range host.MaxAbs {
		if host.MaxAbs[s] != fab.MaxAbs[s] {
			t.Fatalf("MaxAbs differs at step %d", s)
		}
	}
}

func TestFloat32TracksFloat64(t *testing.T) {
	m := testMedium(t, 20, 20, 0.4)
	opts := testOptions(m, 40)
	res, err := Simulate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SimulateReference(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for _, v := range ref {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		t.Fatal("reference field zero")
	}
	for i := range ref {
		if diff := math.Abs(float64(res.U[i]) - ref[i]); diff > 1e-4*scale {
			t.Fatalf("float32 drifted at %d: %g vs %g", i, res.U[i], ref[i])
		}
	}
}

func TestBoundariesStayZero(t *testing.T) {
	m := testMedium(t, 16, 14, 0.3)
	res, err := Simulate(m, testOptions(m, 30))
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < m.Nx; x++ {
		if res.U[m.Index(x, 0)] != 0 || res.U[m.Index(x, m.Ny-1)] != 0 {
			t.Fatal("top/bottom boundary not held at zero")
		}
	}
	for y := 0; y < m.Ny; y++ {
		if res.U[m.Index(0, y)] != 0 || res.U[m.Index(m.Nx-1, y)] != 0 {
			t.Fatal("left/right boundary not held at zero")
		}
	}
}

func TestMaxStableDt(t *testing.T) {
	m := testMedium(t, 8, 8, 0)
	want := 10.0 / (2000 * math.Sqrt2)
	if got := m.MaxStableDt(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MaxStableDt = %g, want %g", got, want)
	}
}

// SimulateReference is the float64 gold stepper for accuracy bounds.
func SimulateReference(m *Medium, opts Options) ([]float64, error) {
	if err := m.validate(opts); err != nil {
		return nil, err
	}
	n := m.Nx * m.Ny
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	s := opts.Dt * opts.Dt / (m.Dx * m.Dx)
	for i := 0; i < n; i++ {
		vf2 := m.VFast[i] * m.VFast[i]
		vs2 := m.VSlow[i] * m.VSlow[i]
		cos, sin := math.Cos(m.Theta[i]), math.Sin(m.Theta[i])
		a[i] = s * (vf2*cos*cos + vs2*sin*sin)
		b[i] = s * (vf2*sin*sin + vs2*cos*cos)
		c[i] = s * 2 * sin * cos * (vf2 - vs2) / 4
	}
	u := make([]float64, n)
	uPrev := make([]float64, n)
	uNext := make([]float64, n)
	srcIdx := m.Index(opts.Source.X, opts.Source.Y)
	for step := 0; step < opts.Steps; step++ {
		t := float64(step) * opts.Dt
		srcVal := opts.Dt * opts.Dt * opts.Source.Ricker(t)
		for y := 1; y < m.Ny-1; y++ {
			for x := 1; x < m.Nx-1; x++ {
				i := m.Index(x, y)
				lap := a[i]*(u[i+1]-2*u[i]+u[i-1]) +
					b[i]*(u[i+m.Nx]-2*u[i]+u[i-m.Nx]) +
					c[i]*((u[i+m.Nx+1]+u[i-m.Nx-1])-(u[i-m.Nx+1]+u[i+m.Nx-1]))
				uNext[i] = 2*u[i] - uPrev[i] + lap
				if i == srcIdx {
					uNext[i] += srcVal
				}
			}
		}
		uPrev, u, uNext = u, uNext, uPrev
	}
	return u, nil
}
