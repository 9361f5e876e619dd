package serve

import (
	"math"
	"strings"
	"testing"
)

// testScenario is the small fast mesh the serve tests run: 48 cells, 2 parts.
func testScenario() Scenario {
	return Scenario{Rings: 6, Sectors: 8, Parts: 2}
}

// TestKeyNormalization pins the cache-key contract: omitted fields and
// spelled-out defaults must key identically (they select the same compiled
// plan), while any field that shapes compilation must change the key.
func TestKeyNormalization(t *testing.T) {
	zero := Scenario{}
	spelled := Scenario{
		Mesh: "radial", Rings: 64, Sectors: 64, RefineEvery: 16,
		Parts: 1, Workers: 1, Precond: "jacobi",
		DtSeconds: 3600, Tol: 1e-8, MaxIter: 800,
	}
	if zero.Key() != spelled.Key() {
		t.Errorf("zero scenario and spelled-out defaults key differently:\n%s\n%s",
			zero.canonical(), spelled.canonical())
	}
	base := testScenario()
	variants := []Scenario{
		{Rings: 8, Sectors: 8, Parts: 2},
		{Rings: 6, Sectors: 8, Parts: 4},
		{Rings: 6, Sectors: 8, Parts: 2, Precond: "amg"},
		{Rings: 6, Sectors: 8, Parts: 2, Tol: 1e-2},
		{Rings: 6, Sectors: 8, Parts: 2, DtSeconds: 60},
		{Rings: 6, Sectors: 8, Parts: 2, Workers: 2},
	}
	seen := map[string]int{base.Key(): -1}
	for i, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: %s", i, prev, v.canonical())
		}
		seen[k] = i
	}
}

// TestScenarioValidate drives the admission-time validation table.
func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name     string
		scn      Scenario
		maxCells int
		wantErr  string // substring, "" = valid
	}{
		{"defaults", Scenario{}, 0, ""},
		{"small", testScenario(), 0, ""},
		{"unknown mesh", Scenario{Mesh: "tetrahedral"}, 0, "unknown mesh family"},
		{"too few rings", Scenario{Rings: 1, Sectors: 8}, 0, "rings"},
		{"too few sectors", Scenario{Rings: 6, Sectors: 2}, 0, "sectors"},
		{"negative refine", Scenario{Rings: 6, Sectors: 8, RefineEvery: -1}, 0, "refine_every"},
		{"parts not power of two", Scenario{Rings: 6, Sectors: 8, Parts: 3}, 0, "power of two"},
		{"negative parts", Scenario{Rings: 6, Sectors: 8, Parts: -2}, 0, "power of two"},
		{"more parts than cells", Scenario{Rings: 6, Sectors: 8, Parts: 64}, 0, "exceed the mesh's 48 cells"},
		{"as many parts as cells", Scenario{Rings: 2, Sectors: 4, Parts: 8}, 0, ""},
		{"more parts than RCB builds", Scenario{Parts: 512, Precond: "amg"}, 0, "over the 256 parts"},
		{"most parts RCB builds", Scenario{Parts: 256}, 0, ""},
		{"negative workers", Scenario{Rings: 6, Sectors: 8, Workers: -1}, 0, "workers"},
		{"unknown precond", Scenario{Precond: "ilu"}, 0, "unknown preconditioner"},
		{"retired rung ssor", Scenario{Precond: "ssor"}, 0, `unknown preconditioner "ssor" (want jacobi, chebyshev, amg)`},
		{"negative tol", Scenario{Tol: -1}, 0, "positive"},
		{"negative dt", Scenario{DtSeconds: -3600}, 0, "positive"},
		{"porosity over 1", Scenario{Porosity: 1.5}, 0, "porosity"},
		{"negative viscosity", Scenario{Viscosity: -1e-5}, 0, "viscosity"},
		{"over cell bound", Scenario{}, 1000, "admission bound"},
		{"under cell bound", testScenario(), 1000, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.scn.Validate(c.maxCells)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate(%+v) = %v, want nil", c.scn, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate(%+v) accepted, want error containing %q", c.scn, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Validate(%+v) error %q does not contain %q", c.scn, err, c.wantErr)
			}
		})
	}
}

// TestCellEstimateMatchesBuiltMesh pins the admission bound's arithmetic to
// the radial builder it predicts: the estimate must equal the real cell
// count, or MaxCells admits meshes it meant to reject.
func TestCellEstimateMatchesBuiltMesh(t *testing.T) {
	for _, scn := range []Scenario{
		testScenario(),
		{Rings: 8, Sectors: 6, RefineEvery: 3},
		{}, // the 15360-cell benchmark default
	} {
		comp, err := scn.compile()
		if err != nil {
			t.Fatalf("compile(%+v): %v", scn, err)
		}
		if est := scn.cellEstimate(); est != comp.u.NumCells {
			t.Errorf("scenario %+v: cellEstimate %d != built mesh %d cells", scn, est, comp.u.NumCells)
		}
	}
}

// TestValidateBoundsHugeMeshes pins the decode boundary against absurd mesh
// sizes: a ring count no loop could walk and a refinement that doubles the
// sector count past int64 are both refused by the cell bound, promptly and
// without the estimate overflowing into an admissible number.
func TestValidateBoundsHugeMeshes(t *testing.T) {
	for _, scn := range []Scenario{
		{Rings: math.MaxInt, Sectors: 3},
		{Rings: 80, Sectors: 3, RefineEvery: 1},
	} {
		if err := scn.Validate(DefaultMaxCells); err == nil || !strings.Contains(err.Error(), "admission bound") {
			t.Errorf("%+v: Validate = %v, want the admission-bound rejection", scn, err)
		}
	}
}
