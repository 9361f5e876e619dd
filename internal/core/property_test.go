package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
	"repro/internal/physics"
)

// Property-based coverage of the engines: for randomized geomodels and
// application counts, the fundamental invariants must hold.

func TestPropertyEnginesAgreeOnRandomGeomodels(t *testing.T) {
	f := func(seed uint32, appsRaw, permRaw uint8) bool {
		opts := mesh.DefaultGeoOptions()
		opts.Seed = uint64(seed)
		opts.BasePermMD = 10 + float64(permRaw)
		apps := 1 + int(appsRaw)%3
		m, err := mesh.Build(mesh.Dims{Nx: 4, Ny: 4, Nz: 3}, mesh.DefaultSpacing(), opts)
		if err != nil {
			return false
		}
		fl := physics.DefaultFluid()
		flat, err := runFlat(m, fl, DefaultOptions(apps))
		if err != nil {
			return false
		}
		fab, err := RunFabric(m, fl, DefaultOptions(apps))
		if err != nil {
			return false
		}
		for i := range flat.Residual {
			if flat.Residual[i] != fab.Residual[i] {
				return false
			}
		}
		return flat.Counters == fab.Counters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPropertyConservationOnRandomGeomodels(t *testing.T) {
	f := func(seed uint32) bool {
		opts := mesh.DefaultGeoOptions()
		opts.Seed = uint64(seed) ^ 0xABCD
		m, err := mesh.Build(mesh.Dims{Nx: 5, Ny: 4, Nz: 3}, mesh.DefaultSpacing(), opts)
		if err != nil {
			return false
		}
		res, err := runFlat(m, physics.DefaultFluid(), DefaultOptions(1))
		if err != nil {
			return false
		}
		sum, scale := 0.0, 0.0
		for _, r := range res.Residual {
			sum += float64(r)
			scale += math.Abs(float64(r))
		}
		return scale == 0 || math.Abs(sum) <= 1e-4*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTable4InvariantUnderGeomodel(t *testing.T) {
	// Per-cell counts are workload-independent: any geomodel and any
	// application count must measure exactly the Table 4 mix.
	f := func(seed uint32, nzRaw uint8) bool {
		opts := mesh.DefaultGeoOptions()
		opts.Seed = uint64(seed) * 7
		nz := 2 + int(nzRaw)%5
		m, err := mesh.Build(mesh.Dims{Nx: 4, Ny: 4, Nz: nz}, mesh.DefaultSpacing(), opts)
		if err != nil {
			return false
		}
		res, err := runFlat(m, physics.DefaultFluid(), DefaultOptions(2))
		if err != nil || res.Interior == nil {
			return false
		}
		pc := res.Interior
		return pc.FMUL == 60 && pc.FSUB == 40 && pc.FNEG == 10 &&
			pc.FADD == 10 && pc.FMA == 10 && pc.FMOV == 16 &&
			pc.MemAccesses == 406 && pc.FabricLoads == 16 && pc.Flops == 140
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMappingComparison(t *testing.T) {
	out, err := CompareMappings(750, 994)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cell-based", "face-based", "fabric words/cell"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q:\n%s", want, out)
		}
	}
	cell, face := CellBasedProfile(), FaceBasedProfile()
	if cell.FabricWordsPerCell != 16 {
		t.Errorf("cell-based words = %g, want the measured 16", cell.FabricWordsPerCell)
	}
	if face.FabricWordsPerCell <= cell.FabricWordsPerCell {
		t.Error("face-based mapping should move more data — the §5.1 rationale")
	}
	if cell.VerticalLocal == false || face.VerticalLocal == true {
		t.Error("vertical locality flags wrong")
	}
	if face.PEsPerCell <= cell.PEsPerCell {
		t.Error("face-based mapping should burn more PEs per cell")
	}
	if _, err := CompareMappings(0, 5); err == nil {
		t.Error("invalid extent accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	m := testMesh(t, mesh.Dims{Nx: 4, Ny: 4, Nz: 3})
	res, err := runFlat(m, physics.DefaultFluid(), DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CellsUpdated(); got != uint64(4*4*3*2) {
		t.Errorf("CellsUpdated = %d", got)
	}
	if res.HostThroughput() <= 0 {
		t.Error("host throughput should be positive")
	}
	if s := res.Interior.String(); !strings.Contains(s, "FMUL=60") {
		t.Errorf("PerCell.String() = %q", s)
	}
}
