package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver reads,
// equal to the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != nominalRunSeconds {
		t.Errorf("run_seconds %d, op counts are sized for %d", file.RunSeconds, nominalRunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, the tables %d + %d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range file.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
	}
	for i, m := range file.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, d)
		}
	}
}

func TestMetricNamesAreUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if seen[d.Name] {
				t.Errorf("metric %s is listed twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	found := false
	for _, d := range endToEnd {
		found = found || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !found {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
}

func TestReportResultLine(t *testing.T) {
	r := newReport("w", false)
	r.attempted = 3
	for _, d := range endToEnd {
		r.set(d.Name, 1.5)
	}
	r.set("host.nproc", 2) // a layer value must not leak into an untraced line
	line := r.result()
	if !line.Correct || len(line.Metrics) != len(endToEnd) || line.Metrics["setup_s"].Unit != "s" {
		t.Errorf("untraced result line: %+v", line)
	}
	r.fail("op %d broke", 2)
	if line = r.result(); line.Correct || line.Failed != 1 {
		t.Errorf("a failed op must clear correct: %+v", line)
	}

	incomplete := newReport("w", false)
	incomplete.attempted = 1
	if incomplete.result().Correct || len(incomplete.missing()) != len(endToEnd) {
		t.Error("a run that produced no end-to-end metric is not correct")
	}
	traced := newReport("w", true)
	traced.attempted = 1
	if line = traced.result(); !line.Correct || len(line.Metrics) != len(perLayer) {
		t.Errorf("traced result line carries %d metrics, want every per-layer one (0 where untouched)", len(line.Metrics))
	}
}
