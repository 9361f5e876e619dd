package solver

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
)

// denseOp is a dense test operator.
type denseOp struct{ a [][]float64 }

func (d *denseOp) Size() int { return len(d.a) }
func (d *denseOp) Apply(dst, x []float64) error {
	for i := range d.a {
		s := 0.0
		for j, v := range d.a[i] {
			s += v * x[j]
		}
		dst[i] = s
	}
	return nil
}

// spdTest returns a small SPD matrix (diagonally dominant Laplacian-like).
func spdTest(n int) *denseOp {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		a[i][i] = 4
		if i > 0 {
			a[i][i-1] = -1
		}
		if i+1 < n {
			a[i][i+1] = -1
		}
	}
	return &denseOp{a}
}

func TestCGSolvesSPD(t *testing.T) {
	op := spdTest(50)
	want := make([]float64, 50)
	for i := range want {
		want[i] = math.Sin(float64(i))
	}
	b := make([]float64, 50)
	op.Apply(b, want)
	x := make([]float64, 50)
	st, err := CG(op, x, b, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("CG did not converge")
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
	if len(st.History) != st.Iterations {
		t.Error("history length mismatch")
	}
}

func TestZeroRHS(t *testing.T) {
	op := spdTest(10)
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	st, err := CG(op, x, make([]float64, 10), Options{})
	if err != nil || !st.Converged {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero RHS should give zero solution")
		}
	}
}

func TestSizeMismatch(t *testing.T) {
	op := spdTest(5)
	if _, err := CG(op, make([]float64, 4), make([]float64, 5), Options{}); err == nil {
		t.Error("CG accepted mismatched x")
	}
	if _, err := CG(op, make([]float64, 5), make([]float64, 6), Options{}); err == nil {
		t.Error("CG accepted mismatched b")
	}
}

func TestNotConverged(t *testing.T) {
	op := spdTest(60)
	b := make([]float64, 60)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, 60)
	_, err := CG(op, x, b, Options{MaxIter: 2, Tol: 1e-14})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
}

func TestJacobiPrecondSpeedsUpCG(t *testing.T) {
	// Badly scaled SPD system: Jacobi should cut iterations.
	n := 64
	a := make([][]float64, n)
	diag := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		scale := math.Pow(10, float64(i%4))
		a[i][i] = 4 * scale
		diag[i] = 4 * scale
		if i > 0 {
			a[i][i-1] = -scale / 2
		}
		if i+1 < n {
			a[i][i+1] = -scale / 2
		}
	}
	// Symmetrize.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := (a[i][j] + a[j][i]) / 2
			a[i][j], a[j][i] = m, m
		}
	}
	op := &denseOp{a}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	plain, err := CG(op, make([]float64, n), b, Options{Tol: 1e-10, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	prec, err := CG(op, make([]float64, n), b, Options{Tol: 1e-10, MaxIter: 2000, PrecondDiag: diag})
	if err != nil {
		t.Fatal(err)
	}
	if prec.Iterations >= plain.Iterations {
		t.Errorf("Jacobi did not help: %d vs %d iterations", prec.Iterations, plain.Iterations)
	}
}

func TestJacobiPrecondRejectsZeroDiagonal(t *testing.T) {
	if err := CheckPrecond(3, PrecondJacobi, []float64{1, 0, 2}); err == nil {
		t.Error("zero diagonal accepted")
	}
}

func buildSys(t *testing.T, d mesh.Dims, faces refflux.FaceSet) (*PressureSystem, physics.Fluid) {
	t.Helper()
	m, err := mesh.BuildDefault(d)
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	sys, err := NewPressureSystem(m, fl, 86400, faces) // one-day step
	if err != nil {
		t.Fatal(err)
	}
	return sys, fl
}

func TestHostOperatorSymmetric(t *testing.T) {
	sys, _ := buildSys(t, mesh.Dims{Nx: 5, Ny: 4, Nz: 3}, refflux.FacesAll)
	op := &HostOperator{Sys: sys}
	n := op.Size()
	// Property: xᵀAy == yᵀAx for random vectors.
	f := func(seed uint8) bool {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(int(seed)+i) * 0.7)
			y[i] = math.Cos(float64(int(seed)+2*i) * 0.3)
		}
		ax := make([]float64, n)
		ay := make([]float64, n)
		op.Apply(ax, x)
		op.Apply(ay, y)
		xay, yax := dot(x, ay), dot(y, ax)
		return math.Abs(xay-yax) <= 1e-9*(math.Abs(xay)+1e-30)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHostOperatorPositiveDefinite(t *testing.T) {
	sys, _ := buildSys(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 3}, refflux.FacesAll)
	op := &HostOperator{Sys: sys}
	n := op.Size()
	f := func(seed uint8) bool {
		x := make([]float64, n)
		nz := false
		for i := range x {
			x[i] = math.Sin(float64(int(seed)*13+i) * 1.1)
			if x[i] != 0 {
				nz = true
			}
		}
		if !nz {
			return true
		}
		ax := make([]float64, n)
		op.Apply(ax, x)
		return dot(x, ax) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDataflowOperatorMatchesHost(t *testing.T) {
	// §8's claim in practice: the dataflow kernel applies the same linear
	// operator as the host assembly (float32 engine vs float64 host).
	for _, faces := range []refflux.FaceSet{refflux.FacesAll, refflux.FacesCardinal} {
		sys, fl := buildSys(t, mesh.Dims{Nx: 5, Ny: 4, Nz: 3}, faces)
		host := &HostOperator{Sys: sys}
		dfo := NewDataflowOperator(sys, fl)
		if err := dfo.Verify(); err != nil {
			t.Fatal(err)
		}
		n := host.Size()
		x := make([]float64, n)
		for i := range x {
			x[i] = 1e5 * math.Sin(float64(i)*0.9) // pressure-scale probe
		}
		hx := make([]float64, n)
		dx := make([]float64, n)
		if err := host.Apply(hx, x); err != nil {
			t.Fatal(err)
		}
		if err := dfo.Apply(dx, x); err != nil {
			t.Fatal(err)
		}
		scale := 0.0
		for i := range hx {
			if a := math.Abs(hx[i]); a > scale {
				scale = a
			}
		}
		for i := range hx {
			if math.Abs(hx[i]-dx[i]) > 5e-4*scale {
				t.Fatalf("faces %v: A·x mismatch at %d: host %g vs dataflow %g",
					faces, i, hx[i], dx[i])
			}
		}
		if dfo.Applications != 1 {
			t.Errorf("applications = %d, want 1", dfo.Applications)
		}
	}
}

func TestDataflowOperatorOnFabric(t *testing.T) {
	sys, fl := buildSys(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 2}, refflux.FacesAll)
	dfo := NewDataflowOperator(sys, fl)
	dfo.UseFabric = true
	flat := NewDataflowOperator(sys, fl)
	n := dfo.Size()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%5) * 1e4
	}
	a := make([]float64, n)
	b := make([]float64, n)
	if err := dfo.Apply(a, x); err != nil {
		t.Fatal(err)
	}
	if err := flat.Apply(b, x); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fabric/flat operator mismatch at %d", i)
		}
	}
}

func TestPressureSolveWithDataflowOperator(t *testing.T) {
	// End-to-end §8 scenario: CG over the matrix-free dataflow operator
	// solves an injection/production pressure step.
	sys, fl := buildSys(t, mesh.Dims{Nx: 6, Ny: 5, Nz: 3}, refflux.FacesAll)
	dfo := NewDataflowOperator(sys, fl)
	b, err := WellSource(sys.Mesh, 1, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, dfo.Size())
	st, err := CG(dfo, x, b, Options{Tol: 1e-6, MaxIter: 400, PrecondDiag: sys.Diagonal()})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("pressure solve did not converge: %+v", st)
	}
	// True residual check against the host operator.
	host := &HostOperator{Sys: sys}
	ax := make([]float64, len(x))
	host.Apply(ax, x)
	num, den := 0.0, math.Sqrt(dot(b, b))
	for i := range ax {
		num += (ax[i] - b[i]) * (ax[i] - b[i])
	}
	if rel := math.Sqrt(num) / den; rel > 1e-4 {
		t.Errorf("true residual %g too large (float32 operator)", rel)
	}
	// Injection raises pressure at the injector relative to the producer.
	inj := x[sys.Mesh.Index(1, 1, 1)]
	prod := x[sys.Mesh.Index(sys.Mesh.Dims.Nx-2, sys.Mesh.Dims.Ny-2, 1)]
	if inj <= prod {
		t.Errorf("injector pressure %g not above producer %g", inj, prod)
	}
}

func TestNewPressureSystemValidation(t *testing.T) {
	m, _ := mesh.BuildDefault(mesh.Dims{Nx: 3, Ny: 3, Nz: 2})
	fl := physics.DefaultFluid()
	if _, err := NewPressureSystem(m, fl, 0, refflux.FacesAll); err == nil {
		t.Error("zero dt accepted")
	}
	bad := fl
	bad.Viscosity = 0
	if _, err := NewPressureSystem(m, bad, 1, refflux.FacesAll); err == nil {
		t.Error("invalid fluid accepted")
	}
	incomp := fl
	incomp.Compressibility = 0
	if _, err := NewPressureSystem(m, incomp, 1, refflux.FacesAll); err == nil {
		t.Error("zero accumulation accepted (matrix would be singular)")
	}
}

func TestWellSourceBalanced(t *testing.T) {
	m, _ := mesh.BuildDefault(mesh.Dims{Nx: 6, Ny: 6, Nz: 4})
	b, err := WellSource(m, 1, 2, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range b {
		sum += v
	}
	if math.Abs(sum) > 1e-12 {
		t.Errorf("source not balanced: Σb = %g", sum)
	}
	if _, err := WellSource(m, 99, 0, 1); err == nil {
		t.Error("out-of-range well accepted")
	}
}

func TestDiagonalMatchesOperatorProbe(t *testing.T) {
	sys, _ := buildSys(t, mesh.Dims{Nx: 4, Ny: 3, Nz: 2}, refflux.FacesAll)
	op := &HostOperator{Sys: sys}
	diag := sys.Diagonal()
	n := op.Size()
	e := make([]float64, n)
	ae := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := range e {
			e[j] = 0
		}
		e[i] = 1
		op.Apply(ae, e)
		if math.Abs(ae[i]-diag[i]) > 1e-9*math.Abs(diag[i]) {
			t.Fatalf("diagonal[%d] = %g, probe %g", i, diag[i], ae[i])
		}
	}
}
