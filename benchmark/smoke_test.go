package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/massivefv"
)

// shortSizes is the -short smoke size of the unit tests.
func shortSizes() sizes {
	return sizes{
		setups: 2, warm: 1, ops: 4, probes: 1,
		fluxDims: massivefv.Dims{Nx: 6, Ny: 5, Nz: 8}, fluxApps: 2,
		rings: 8, sectors: 8, refineEvery: 4, usolveSteps: 2,
		openRate: 200, openN: 12,
	}
}

// TestWorkloadSmoke runs every workload at the tiny -short sizes, untraced and
// traced: all operations pass their oracles, every end-to-end metric the
// sample supports is there and non-zero, and a traced run's parts sum to the
// whole.
func TestWorkloadSmoke(t *testing.T) {
	sz := shortSizes()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.name + "/untraced"
			var tr *tracer
			if traced {
				name, tr = wl.name+"/traced", newTracer()
			}
			t.Run(name, func(t *testing.T) {
				r, err := wl.run(1, sz, tr)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.failures)
				}
				for _, name := range r.missing() {
					// Four operations support no 90th percentile.
					if name != "op_s_p90" {
						t.Errorf("end-to-end metric %s missing or zero", name)
					}
				}
				line := r.result()
				if want := len(r.defs()); len(line.Metrics) != want {
					t.Errorf("result line carries %d metrics, want all %d of its table", len(line.Metrics), want)
				}
				if !traced {
					return
				}
				if len(tr.spans) == 0 {
					t.Fatal("a traced run recorded no spans")
				}
				if e := partsError(tr.spans); e > 0.01 {
					t.Errorf("child spans plus self time miss their span by %.3g, want within 1%%", e)
				}
				for _, s := range tr.spans {
					if s.End < s.Start {
						t.Errorf("span %d %s was never closed", s.ID, s.Name)
					}
				}
				path := filepath.Join(t.TempDir(), "out", "trace.json")
				if err := tr.write(path); err != nil {
					t.Fatal(err)
				}
				body, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var file struct{ Spans []span }
				if err := json.Unmarshal(body, &file); err != nil || len(file.Spans) != len(tr.spans) {
					t.Errorf("trace file: %v, %d spans of %d", err, len(file.Spans), len(tr.spans))
				}
			})
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := runWorkload("nope", 1, shortSizes(), nil); err == nil {
		t.Error("an unknown workload must be an error")
	}
}

func TestSizesScaleWithSeconds(t *testing.T) {
	base, long, traced := sizesFor(nominalRunSeconds, false), sizesFor(2*nominalRunSeconds, false), sizesFor(nominalRunSeconds, true)
	if base.ops != minOps || sizesFor(1, false).ops != minOps {
		t.Errorf("ops = %d at the nominal length, want the floor %d that keeps p90 reportable", base.ops, minOps)
	}
	if long.ops != 2*minOps || long.openN != 2*base.openN {
		t.Errorf("doubling --seconds gave ops %d, open requests %d", long.ops, long.openN)
	}
	if traced.ops != base.ops/4 {
		t.Errorf("traced run has %d ops, want a quarter of %d", traced.ops, base.ops)
	}
}
