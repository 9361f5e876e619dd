package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/physics"
	"repro/internal/refflux"
	"repro/internal/sim"
	"repro/internal/umesh"
)

// TestDataflowOperatorOnPoisonedSlabs holds sim.DataflowOperator, which keeps
// one flat engine across the applications of a Krylov solve, to its fabric
// oracle bit for bit while that engine runs on a slab a closed engine left
// NaN: on the 6-face stencil, whose engine runs with diagonals off, and on
// all ten faces, at one and two workers. At two the bands hold 3 and 2 rows,
// so the poisoned slab, the last band's, fits only the operator engine's
// last band, the one its Close releases last.
func TestDataflowOperatorOnPoisonedSlabs(t *testing.T) {
	m, err := mesh.BuildDefault(mesh.Dims{Nx: 6, Ny: 5, Nz: 3})
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	// The operator's fluid (sim.NewDataflowOperator): linear density with
	// compressibility and gravity zeroed, so the kernel is linear in x.
	lin := fl.WithModel(physics.DensityLinear)
	lin.Compressibility, lin.Gravity = 0, 0
	for _, faces := range []refflux.FaceSet{refflux.FacesCardinal, refflux.FacesAll} {
		u, err := umesh.FromStructured(m, faces)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := umesh.NewUSystem(u, fl, 6*3600, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("faces=%v/workers=%d", faces, workers), func(t *testing.T) {
				opts := core.DefaultOptions(1)
				opts.Diagonals, opts.Workers = faces == refflux.FacesAll, workers
				poisoned := core.PoisonedSlabs(t, m, lin, opts)
				op := sim.NewDataflowOperator(m, sys, fl, faces)
				op.Workers = workers
				got := make([][]float64, 2)
				xs := make([][]float64, len(got))
				for k := range got {
					xs[k] = make([]float64, op.Size())
					for i := range xs[k] {
						xs[k][i] = 1e5 * math.Sin(float64(i+5*k)*0.7)
					}
					got[k] = make([]float64, op.Size())
					if err := op.Apply(got[k], xs[k]); err != nil {
						t.Fatal(err)
					}
				}
				op.Close()
				if !core.NextEngineTakes(t, m, lin, opts, poisoned) {
					t.Fatal("the operator's engine did not run on the poisoned slabs")
				}
				for k, x := range xs {
					view := *m
					view.Pressure = x
					fab, err := core.RunFabric(&view, lin, opts)
					if err != nil {
						t.Fatal(err)
					}
					for i := range x {
						want := sys.Accum[i]*x[i] - float64(fab.Residual[i])
						if math.Float64bits(got[k][i]) != math.Float64bits(want) {
							t.Fatalf("application %d: A·x[%d] = %g, fabric oracle %g", k, i, got[k][i], want)
						}
					}
				}
			})
		}
	}
}
