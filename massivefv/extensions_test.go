package massivefv

import (
	"math"
	"strings"
	"testing"

	"repro/internal/refflux"
	"repro/internal/umesh"
)

func TestFacadeTransient(t *testing.T) {
	m, err := BuildMesh(Dims{Nx: 8, Ny: 6, Nz: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTransient(m, DefaultFluid(), TransientOptions{
		Dt:    3600,
		Steps: 2,
		Wells: []Well{{X: 2, Y: 2, Rate: 1}, {X: 6, Y: 4, Rate: -1}},
		Faces: refflux.FacesAll,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 || res.Steps[1].MassError > 1e-6 {
		t.Errorf("transient run wrong: %+v", res.Steps)
	}
}

func TestFacadeWave(t *testing.T) {
	med, err := NewWaveMedium(16, 16, 10, 2000, 1400, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateWave(med, WaveOptions{
		Dt:     0.8 * med.MaxStableDt(),
		Steps:  20,
		Source: WaveSource{X: 8, Y: 8, Freq: 15, Amp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAbs[len(res.MaxAbs)-1] == 0 {
		t.Error("facade wave produced an empty field")
	}
}

func TestFacadeUnstructured(t *testing.T) {
	um, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	fl := DefaultFluid()
	fl.Gravity = 0
	p := make([]float32, um.NumCells)
	for i := range p {
		p[i] = 2e7 + 1e5*float32(math.Sin(float64(i)))
	}
	serial, err := umesh.ComputeResidualCellBased(um, fl, p)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionRCB(um, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunUnstructured(um, part, fl, UnstructuredOptions{UEngineOptions: UEngineOptions{Apps: 1}, Pressure: p})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != dist.Residual[i] {
			t.Fatalf("facade distributed residual differs at %d", i)
		}
	}
}

func TestFacadeSolveUnstructured(t *testing.T) {
	// The §8-on-§9 facade: a partitioned implicit pressure step must be
	// bit-identical to the serial reference solve (same iterations, same x).
	um, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	fl := DefaultFluid()
	b := make([]float64, um.NumCells)
	b[um.WellIndex()] = 1.5
	b[um.NumCells-1] = -1.5
	xSerial, stSerial, err := SolveUnstructured(um, nil, fl, 3600, b, SolverOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionRCB(um, 2)
	if err != nil {
		t.Fatal(err)
	}
	xPart, stPart, err := SolveUnstructured(um, part, fl, 3600, b, SolverOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if stPart.Iterations != stSerial.Iterations {
		t.Errorf("partitioned solve took %d iterations, serial %d", stPart.Iterations, stSerial.Iterations)
	}
	for i := range xSerial {
		if xPart[i] != xSerial[i] {
			t.Fatalf("partitioned solution differs at %d: %g vs %g", i, xPart[i], xSerial[i])
		}
	}
	if xSerial[um.WellIndex()] <= 0 {
		t.Errorf("injection did not raise pressure: %g", xSerial[um.WellIndex()])
	}
}

func TestFacadeSolveUnstructuredRejectsHandBuiltPartition(t *testing.T) {
	// UPartition's fields are exported, but only PartitionRCB records the
	// halo lists a partitioned solve compiles: one assembled by hand is an
	// error naming RCB, never a panic.
	um, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	rcb, err := PartitionRCB(um, 1)
	if err != nil {
		t.Fatal(err)
	}
	hand := &UPartition{NumParts: rcb.NumParts, Part: rcb.Part, Owned: rcb.Owned}
	b := make([]float64, um.NumCells)
	b[um.WellIndex()] = 1.5
	_, _, err = SolveUnstructured(um, hand, DefaultFluid(), 3600, b, SolverOptions{Tol: 1e-8})
	if err == nil || !strings.Contains(err.Error(), "RCB") {
		t.Fatalf("SolveUnstructured on a hand-built partition: %v, want an error naming RCB", err)
	}
}

func TestFacadeTransientUnstructured(t *testing.T) {
	um, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionRCB(um, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := UTransientOptions{
		Dt:    3600,
		Steps: 2,
		Wells: []UWell{
			{Cell: um.WellIndex(), Rate: 1.0},
			{Cell: um.NumCells - 1, Rate: -1.0},
		},
		Workers: 2,
	}
	res, err := RunTransientUnstructured(um, part, DefaultFluid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 || res.OperatorApplications == 0 {
		t.Fatalf("degenerate transient result: %d steps, %d applications",
			len(res.Steps), res.OperatorApplications)
	}
	if res.Pressure[um.WellIndex()] <= 2e7 {
		t.Errorf("injector pressure %g did not rise", res.Pressure[um.WellIndex()])
	}
}

func TestFacadeRunUnstructured(t *testing.T) {
	um, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionRCB(um, 2)
	if err != nil {
		t.Fatal(err)
	}
	fl := DefaultFluid()
	p := make([]float32, um.NumCells)
	for i := range p {
		p[i] = 2e7 + 1e5*float32(math.Sin(float64(i)))
	}
	const apps = 3
	res, err := RunUnstructured(um, part, fl, UnstructuredOptions{
		UEngineOptions: UEngineOptions{Apps: apps, Workers: 2},
		Pressure:       p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps != apps || res.NumCells != um.NumCells {
		t.Fatalf("result echo wrong: %+v", res)
	}
	if res.Comm.HaloWords == 0 || res.Comm.Messages == 0 {
		t.Error("multi-part run reports no communication")
	}
	serial, err := umesh.RunCellBasedApps(um, fl, p, apps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if res.Residual[i] != serial[i] {
			t.Fatalf("facade engine residual differs at %d: %g vs %g", i, res.Residual[i], serial[i])
		}
	}
	// Nil pressure selects the default uniform field.
	if _, err := RunUnstructured(um, part, fl, UnstructuredOptions{}); err != nil {
		t.Fatal(err)
	}
}
