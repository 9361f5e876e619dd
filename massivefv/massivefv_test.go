package massivefv

import (
	"math"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	m, err := BuildMesh(Dims{Nx: 6, Ny: 5, Nz: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDataflow(m, DefaultFluid(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interior == nil || res.Interior.FMUL != 60 {
		t.Errorf("interior counts wrong: %+v", res.Interior)
	}
	rep, err := ProjectCS2(res, 750, 994, 246, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.TotalTime-0.0823)/0.0823 > 0.005 {
		t.Errorf("projection %.4f s, want ≈0.0823", rep.TotalTime)
	}
}

func TestGPUFlow(t *testing.T) {
	m, err := BuildMesh(Dims{Nx: 8, Ny: 6, Nz: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := RunGPU(m, DefaultFluid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Flops == 0 {
		t.Error("no flops measured")
	}
	m2, _ := BuildMesh(Dims{Nx: 8, Ny: 6, Nz: 5})
	ref, err := RunReference(m2, DefaultFluid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for _, r := range ref {
		if a := math.Abs(r); a > scale {
			scale = a
		}
	}
	for i := range res {
		if math.Abs(float64(res[i])-ref[i]) > 2e-3*scale {
			t.Fatalf("GPU residual mismatch at %d", i)
		}
	}
	proj, err := ProjectA100(stats, m.Dims.Cells(), 1, 750*994*246, 1000, RAJA)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(proj.TotalTime-16.84)/16.84 > 0.01 {
		t.Errorf("A100 projection %.2f s, want ≈16.84", proj.TotalTime)
	}
}

func TestFlatMatchesFabricThroughFacade(t *testing.T) {
	m, _ := BuildMesh(Dims{Nx: 5, Ny: 4, Nz: 3})
	a, err := RunDataflow(m, DefaultFluid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := BuildMesh(Dims{Nx: 5, Ny: 4, Nz: 3})
	b, err := RunFlatParallelOpts(m2, DefaultFluid(), DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Residual {
		if a.Residual[i] != b.Residual[i] {
			t.Fatal("facade engines disagree")
		}
	}
}

func TestProjectCS2RequiresInterior(t *testing.T) {
	m, _ := BuildMesh(Dims{Nx: 2, Ny: 2, Nz: 3})
	res, err := RunDataflow(m, DefaultFluid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProjectCS2(res, 10, 10, 10, 1); err == nil {
		t.Error("projection without interior counters accepted")
	}
}

func TestExperimentEntryPoints(t *testing.T) {
	cfg := ExperimentConfig{FuncDims: Dims{Nx: 6, Ny: 5, Nz: 4}, FuncApps: 1}
	if _, err := RunTable4(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParallelFacadeBitIdentical(t *testing.T) {
	m, err := BuildMesh(Dims{Nx: 6, Ny: 6, Nz: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	opts.Workers = 1
	serial, err := RunFlatParallelOpts(m, DefaultFluid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		opts.Workers = workers
		par, err := RunFlatParallelOpts(m, DefaultFluid(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Residual {
			if serial.Residual[i] != par.Residual[i] {
				t.Fatalf("workers=%d: facade parallel engine diverged at %d", workers, i)
			}
		}
		if serial.Counters != par.Counters {
			t.Errorf("workers=%d: facade parallel counters differ", workers)
		}
	}
}
