package kernels

import (
	"math"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
)

func uploadTestMesh(t *testing.T, d mesh.Dims) (*FluxData, *mesh.Mesh, physics.Fluid) {
	t.Helper()
	m, err := mesh.BuildDefault(d)
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	dev := gpusim.NewDevice(gpusim.A100())
	fd, err := Upload(dev, m, fl)
	if err != nil {
		t.Fatal(err)
	}
	return fd, m, fl
}

func assertClose(t *testing.T, got []float32, want []float64, tol float64) {
	t.Helper()
	scale := 0.0
	for _, w := range want {
		if a := math.Abs(w); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		t.Fatal("degenerate reference")
	}
	for i := range got {
		if diff := math.Abs(float64(got[i]) - want[i]); diff/scale > tol {
			t.Fatalf("residual[%d]: got %g, want %g (scaled err %g)", i, got[i], want[i], diff/scale)
		}
	}
}

func TestRAJAMatchesReference(t *testing.T) {
	fd, m, fl := uploadTestMesh(t, mesh.Dims{Nx: 18, Ny: 9, Nz: 10})
	if _, err := fd.RunRAJA(1); err != nil {
		t.Fatal(err)
	}
	ref, err := refflux.ComputeResidual(m, fl, m.Pressure32(), refflux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, fd.Residual(), ref, 2e-3)
}

func TestCUDAMatchesReference(t *testing.T) {
	fd, m, fl := uploadTestMesh(t, mesh.Dims{Nx: 18, Ny: 9, Nz: 10})
	if _, err := fd.RunCUDA(1); err != nil {
		t.Fatal(err)
	}
	ref, err := refflux.ComputeResidual(m, fl, m.Pressure32(), refflux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, fd.Residual(), ref, 2e-3)
}

func TestRAJAAndCUDABitIdentical(t *testing.T) {
	// Same arithmetic, same order: the two variants must agree exactly
	// ("to validate the numerical accuracy", §6).
	fdA, _, _ := uploadTestMesh(t, mesh.Dims{Nx: 20, Ny: 11, Nz: 9})
	fdB, _, _ := uploadTestMesh(t, mesh.Dims{Nx: 20, Ny: 11, Nz: 9})
	if _, err := fdA.RunRAJA(3); err != nil {
		t.Fatal(err)
	}
	if _, err := fdB.RunCUDA(3); err != nil {
		t.Fatal(err)
	}
	a, b := fdA.Residual(), fdB.Residual()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("residual[%d] differs: RAJA %g vs CUDA %g", i, a[i], b[i])
		}
	}
}

func TestMultiAppMatchesReference(t *testing.T) {
	fd, m, fl := uploadTestMesh(t, mesh.Dims{Nx: 8, Ny: 8, Nz: 6})
	if _, err := fd.RunRAJA(4); err != nil {
		t.Fatal(err)
	}
	p := m.Pressure32()
	ref, err := refflux.Run(m, fl, p, 4, refflux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, fd.Residual(), ref, 2e-3)
}

func TestPerCellCounters(t *testing.T) {
	// The kernel's measured FLOPs and traffic per cell must match the
	// documented constants (280 FLOPs, 33 words → AI ≈ 2.12, §7.3's 2.11).
	d := mesh.Dims{Nx: 16, Ny: 8, Nz: 8} // exact-fit launch: no inactive threads
	fd, _, _ := uploadTestMesh(t, d)
	st, err := fd.RunRAJA(1)
	if err != nil {
		t.Fatal(err)
	}
	cells := uint64(d.Cells())
	if st.ThreadsActive != cells {
		t.Fatalf("active threads %d != cells %d", st.ThreadsActive, cells)
	}
	if got := st.Flops / cells; got != FlopsPerCell {
		t.Errorf("FLOPs/cell = %d, want %d", got, FlopsPerCell)
	}
	// 2 own loads + 3 loads per face + 1 store.
	if got, want := (st.LoadWords+st.StoreWords)/cells, uint64(2+3*10+1); got != want {
		t.Errorf("words/cell = %d, want %d", got, want)
	}
	if ai := float64(st.Flops) / float64(st.Bytes()); math.Abs(ai-2.11) > 0.05 {
		t.Errorf("AI = %.3f, want ≈2.11 (§7.3)", ai)
	}
	if st.ExpCalls != 20*cells {
		t.Errorf("exp calls = %d, want %d (2 per face)", st.ExpCalls, 20*cells)
	}
}

func TestCUDABoundaryThreads(t *testing.T) {
	// A mesh that does not tile evenly: the CUDA variant launches ceil-div
	// blocks and the surplus threads early-return.
	d := mesh.Dims{Nx: 17, Ny: 9, Nz: 5}
	fd, _, _ := uploadTestMesh(t, d)
	st, err := fd.RunCUDA(1)
	if err != nil {
		t.Fatal(err)
	}
	launched := uint64(2*2*1) * 1024 // grid (2,2,1) × 1024
	if st.ThreadsLaunched != launched {
		t.Errorf("launched = %d, want %d", st.ThreadsLaunched, launched)
	}
	if st.ThreadsActive != uint64(d.Cells()) {
		t.Errorf("active = %d, want %d", st.ThreadsActive, d.Cells())
	}
	if st.ThreadsActive >= st.ThreadsLaunched {
		t.Error("no boundary threads were culled")
	}
}

func TestRunRejectsBadApps(t *testing.T) {
	fd, _, _ := uploadTestMesh(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 4})
	if _, err := fd.RunRAJA(0); err == nil {
		t.Error("apps=0 accepted")
	}
	if _, err := fd.RunCUDA(-1); err == nil {
		t.Error("apps=-1 accepted")
	}
}

func TestUploadRejectsBadFluid(t *testing.T) {
	m, _ := mesh.BuildDefault(mesh.Dims{Nx: 3, Ny: 3, Nz: 3})
	fl := physics.DefaultFluid()
	fl.Viscosity = 0
	if _, err := Upload(gpusim.NewDevice(gpusim.A100()), m, fl); err == nil {
		t.Error("invalid fluid accepted")
	}
}

func TestUploadOutOfMemory(t *testing.T) {
	m, _ := mesh.BuildDefault(mesh.Dims{Nx: 32, Ny: 32, Nz: 32})
	spec := gpusim.A100()
	spec.MemBytes = 1024 // absurdly small device
	if _, err := Upload(gpusim.NewDevice(spec), m, physics.DefaultFluid()); err == nil {
		t.Error("upload into tiny device accepted")
	}
}

func TestPaperMeshFitsDeviceMemory(t *testing.T) {
	// §6: "large enough device memory to load all data at once" — the
	// 750×994×246 mesh uses 13 buffers × 4 B/cell ≈ 9.5 GB < 40 GB.
	cells := int64(750) * 994 * 246
	bytes := cells * 4 * 13 // p, gz, res, 10 trans
	if bytes >= gpusim.A100().MemBytes {
		t.Fatalf("paper mesh does not fit: %d >= %d", bytes, gpusim.A100().MemBytes)
	}
}
