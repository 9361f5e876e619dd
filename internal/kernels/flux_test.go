package kernels

import (
	"math"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
)

// flopsPerFace is the operation count of one exponential face-flux
// evaluation as the reference kernel executes it: 16 FLOPs (density per side
// with g·z precombined elevations, the upwind select counted as one
// predicated op) and two expf at gpusim.ExpFlopCost each. With it the kernel
// measures 280 FLOPs per cell over 132 bytes of word-level traffic — an
// arithmetic intensity of 2.12 FLOPs/Byte, matching the paper's reported
// 2.11 (§7.3).
const flopsPerFace = 16 + 2*gpusim.ExpFlopCost

// flopsPerCell is the per-cell FLOP count the counters must measure.
const flopsPerCell = 10 * flopsPerFace

func TestFlopConstants(t *testing.T) {
	if flopsPerFace != 28 {
		t.Errorf("flopsPerFace = %d, want 28 (280/cell → AI 2.12, §7.3)", flopsPerFace)
	}
}

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

// The paper's RAJA and CUDA builds run the one launch, Run; the two tests
// check it against the reference at a shape that tiles Block in no
// dimension and at one that tiles it exactly with several blocks per axis.
func TestRAJAMatchesReference(t *testing.T) {
	assertRunMatchesReference(t, mesh.Dims{Nx: 18, Ny: 9, Nz: 10})
}

func TestCUDAMatchesReference(t *testing.T) {
	assertRunMatchesReference(t, mesh.Dims{Nx: 32, Ny: 16, Nz: 16})
}

func assertRunMatchesReference(t *testing.T, d mesh.Dims) {
	t.Helper()
	fd, m, fl := uploadTestMesh(t, d)
	if _, err := fd.Run(1); err != nil {
		t.Fatal(err)
	}
	ref, err := refflux.ComputeResidual(m, fl, m.Pressure32(), refflux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, fd.Residual(), ref, 2e-3)
}

func TestMultiAppMatchesReference(t *testing.T) {
	fd, m, fl := uploadTestMesh(t, mesh.Dims{Nx: 8, Ny: 8, Nz: 6})
	if _, err := fd.Run(4); err != nil {
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
	st, err := fd.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	cells := uint64(d.Cells())
	if st.ThreadsActive != cells {
		t.Fatalf("active threads %d != cells %d", st.ThreadsActive, cells)
	}
	if got := st.Flops / cells; got != flopsPerCell {
		t.Errorf("FLOPs/cell = %d, want %d", got, flopsPerCell)
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
	// A mesh that tiles Block in no dimension: the launch ceil-divides
	// Block and the surplus threads early-return.
	d := mesh.Dims{Nx: 17, Ny: 9, Nz: 5}
	fd, _, _ := uploadTestMesh(t, d)
	st, err := fd.Run(1)
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

func TestLaunchRAJACoversExactExtents(t *testing.T) {
	// Run at a shape that tiles Block in no dimension visits each (x, y, z)
	// exactly once: the residual starts NaN, every cell is written, exactly
	// one store per cell is counted, and the result matches the reference.
	d := mesh.Dims{Nx: 19, Ny: 7, Nz: 3}
	fd, m, fl := uploadTestMesh(t, d)
	fd.Res.Mutate(func(r []float32) {
		for i := range r {
			r[i] = float32(math.NaN())
		}
	})
	st, err := fd.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	cells := uint64(d.Cells())
	if st.ThreadsActive != cells || st.StoreWords != cells {
		t.Errorf("active threads %d, stores %d, want %d each", st.ThreadsActive, st.StoreWords, cells)
	}
	if st.ThreadsLaunched <= st.ThreadsActive {
		t.Error("expected guarded surplus threads from the non-aligned extents")
	}
	ref, err := refflux.ComputeResidual(m, fl, m.Pressure32(), refflux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, fd.Residual(), ref, 2e-3)
}

func TestRunRejectsBadApps(t *testing.T) {
	fd, _, _ := uploadTestMesh(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 4})
	if _, err := fd.Run(0); err == nil {
		t.Error("apps=0 accepted")
	}
	if _, err := fd.Run(-1); err == nil {
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
