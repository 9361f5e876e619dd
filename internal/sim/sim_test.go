package sim

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
)

func simMesh(t *testing.T) *mesh.Mesh {
	t.Helper()
	m, err := mesh.BuildDefault(mesh.Dims{Nx: 10, Ny: 8, Nz: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func simOptions() Options {
	return Options{
		Dt:    3600,
		Steps: 3,
		Wells: []Well{{X: 2, Y: 2, Rate: 2.0}, {X: 7, Y: 5, Rate: -2.0}},
		Faces: refflux.FacesAll,
	}
}

func TestTransientConservesMass(t *testing.T) {
	m := simMesh(t)
	res, err := RunTransient(m, physics.DefaultFluid(), simOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 {
		t.Fatalf("%d step reports, want 3", len(res.Steps))
	}
	for _, st := range res.Steps {
		if st.MassError > 1e-6 {
			t.Errorf("step %d: mass error %g", st.Step, st.MassError)
		}
		if st.Iterations == 0 || st.Residual > 1e-7 {
			t.Errorf("step %d: solver did not converge (%d its, %g)", st.Step, st.Iterations, st.Residual)
		}
	}
}

func TestTransientPressureRisesAtInjector(t *testing.T) {
	m := simMesh(t)
	before := append([]float64(nil), m.Pressure...)
	opts := simOptions()
	res, err := RunTransient(m, physics.DefaultFluid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	inj := m.Index(2, 2, 2)
	prod := m.Index(7, 5, 2)
	if res.Pressure[inj] <= before[inj] {
		t.Error("injector pressure did not rise")
	}
	if res.Pressure[prod] >= before[prod] {
		t.Error("producer pressure did not fall")
	}
}

func TestTransientApproachesSteadyState(t *testing.T) {
	// With frozen coefficients and constant balanced wells, δp per step is
	// constant after the first solve; the per-step max Δp must not grow.
	m := simMesh(t)
	opts := simOptions()
	opts.Steps = 4
	res, err := RunTransient(m, physics.DefaultFluid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Steps[0].MaxDeltaP
	for _, st := range res.Steps[1:] {
		if st.MaxDeltaP > first*1.01 {
			t.Errorf("step %d Δp %g grew beyond step 0's %g", st.Step, st.MaxDeltaP, first)
		}
	}
}

func TestTransientDataflowOperatorMatchesHost(t *testing.T) {
	mHost := simMesh(t)
	mDF := simMesh(t)
	fl := physics.DefaultFluid()
	opts := simOptions()
	opts.Steps = 2
	opts.Solver.Tol = 1e-9
	host, err := RunTransient(mHost, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.UseDataflowOperator = true
	df, err := RunTransient(mDF, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if df.OperatorApplications == 0 {
		t.Fatal("dataflow operator never applied")
	}
	for i, st := range host.Steps {
		if d := st.Iterations - df.Steps[i].Iterations; d < -5 || d > 5 {
			t.Errorf("step %d: host %d CG iterations, dataflow %d", i, st.Iterations, df.Steps[i].Iterations)
		}
	}
	// Compare final fields: float32 operator vs float64 operator.
	worst := 0.0
	for i := range host.Pressure {
		if d := math.Abs(host.Pressure[i] - df.Pressure[i]); d > worst {
			worst = d
		}
	}
	// Δp magnitudes are O(1e4–1e5) Pa; float32 operator tolerance.
	maxDp := host.Steps[0].MaxDeltaP
	if worst > 1e-3*maxDp*float64(opts.Steps)+1 {
		t.Errorf("dataflow-driven field deviates by %g Pa (max Δp %g)", worst, maxDp)
	}
}

func TestTransientValidation(t *testing.T) {
	fl := physics.DefaultFluid()
	for _, tc := range []struct {
		name string
		edit func(*Options)
	}{
		{"zero dt", func(o *Options) { o.Dt = 0 }},
		{"zero steps", func(o *Options) { o.Steps = 0 }},
		{"no wells", func(o *Options) { o.Wells = nil }},
		{"out-of-grid well", func(o *Options) { o.Wells = []Well{{X: 99, Y: 0, Rate: 1}} }},
		{"negative well column", func(o *Options) { o.Wells = []Well{{X: 1, Y: -1, Rate: 1}} }},
		{"zero-rate wells", func(o *Options) { o.Wells = []Well{{X: 1, Y: 1, Rate: 0}} }},
		{"NaN rate", func(o *Options) { o.Wells[0].Rate = math.NaN() }},
		{"infinite rate", func(o *Options) { o.Wells[1].Rate = math.Inf(-1) }},
	} {
		m := simMesh(t)
		before := append([]float64(nil), m.Pressure...)
		opts := simOptions()
		tc.edit(&opts)
		if _, err := RunTransient(m, fl, opts); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		for i, p := range m.Pressure {
			if p != before[i] {
				t.Fatalf("%s: the rejected run wrote m.Pressure[%d]", tc.name, i)
			}
		}
	}

	// A run advances the mesh's own pressure slice, and that slice is the
	// result's final field.
	m := simMesh(t)
	field := unsafe.SliceData(m.Pressure)
	res, err := RunTransient(m, fl, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(m.Pressure) != field || unsafe.SliceData(res.Pressure) != field {
		t.Error("the run did not advance m.Pressure in place as the result's Pressure")
	}
	fresh := simMesh(t)
	if m.Pressure[m.Index(2, 2, 0)] == fresh.Pressure[fresh.Index(2, 2, 0)] {
		t.Error("the injector column's pressure did not move")
	}
}

func TestUnbalancedInjectionRaisesFieldPressure(t *testing.T) {
	// Pure injection into a closed compressible system: average pressure
	// must rise every step by ΣQ·Δt / Σ(Vφρcf).
	m := simMesh(t)
	fl := physics.DefaultFluid()
	opts := simOptions()
	opts.Wells = []Well{{X: 4, Y: 4, Rate: 1.0}}
	before := 0.0
	for _, p := range m.Pressure {
		before += p
	}
	res, err := RunTransient(m, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := 0.0
	for _, p := range res.Pressure {
		after += p
	}
	if after <= before {
		t.Error("net injection did not raise average pressure")
	}
}
