package main

import (
	"fmt"
	"io"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the same
// names, units and bounds; TestBenchmarkJSONMatchesTables keeps them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression (0 for per-layer
	// metrics, which have none).
	Bound float64
	// Exact marks a count that must repeat exactly (≡ in the README): a
	// speed-only change leaves it identical.
	Exact bool
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; the README says what each means on each workload. Seconds are
// yardstick-normalised.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_s_p50", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "op_s_p90", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cell_updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "alloc_mb_per_op", Unit: "MiB", Better: "lower", Bound: 0.05},
	{Name: "resident_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
}

// perLayer is what single layers report, named layer.metric. A workload that
// does not touch a layer reports 0 for it. Everything outside host.* and the
// exact counts is measured in the traced run only.
var perLayer = []metricDef{
	// Structured side: mesh, core engines, the dsd vector model, the float64
	// reference and the wavelet fabric.
	{Name: "mesh.build_s", Unit: "s", Better: "lower"},
	{Name: "core.load_s_per_op", Unit: "s", Better: "lower"},
	{Name: "core.device_s_per_op", Unit: "s", Better: "lower"},
	{Name: "core.flat_w2_speedup", Unit: "x", Better: "higher"},
	{Name: "dsd.flops_per_cell", Unit: "count", Better: "lower", Exact: true},
	{Name: "dsd.mem_words_per_cell", Unit: "count", Better: "lower", Exact: true},
	{Name: "dsd.fabric_words_per_cell", Unit: "count", Better: "lower", Exact: true},
	{Name: "dsd.issues_per_cell", Unit: "count", Better: "lower", Exact: true},
	{Name: "refflux.s_per_app", Unit: "s", Better: "lower"},
	{Name: "core.speedup_vs_refflux", Unit: "x", Better: "higher"},
	{Name: "fabric.cell_updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fabric.wavelets", Unit: "count", Better: "lower", Exact: true},

	// Unstructured side: mesh, RCB, plan compilation, Krylov counts, phases.
	{Name: "umesh.mesh_build_s", Unit: "s", Better: "lower"},
	{Name: "umesh.rcb_s", Unit: "s", Better: "lower"},
	{Name: "umesh.compile_s", Unit: "s", Better: "lower"},
	{Name: "solver.iterations_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "umesh.operator_applications_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "umesh.halo_words_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "umesh.messages_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "exec.dispatches_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "exec.barriers_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "umesh.scatters_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "umesh.gathers_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "umesh.phase_exchange_s", Unit: "s", Better: "lower"},
	{Name: "umesh.phase_compute_s", Unit: "s", Better: "lower"},
	{Name: "umesh.phase_reduce_s", Unit: "s", Better: "lower"},
	{Name: "solver.host_s_per_op", Unit: "s", Better: "lower"},
	{Name: "solver.s_per_iteration", Unit: "s", Better: "lower"},
	{Name: "solver.mass_error_max", Unit: "ratio", Better: "lower"},
	{Name: "umesh.serial_ref_s", Unit: "s", Better: "lower"},
	{Name: "umesh.speedup_vs_serial_ref", Unit: "x", Better: "higher"},
	{Name: "exec.w2_speedup", Unit: "x", Better: "higher"},
	{Name: "umesh.engine_cell_updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "umesh.oneshot_s", Unit: "s", Better: "lower"},

	// Serving layer: closed-loop request path, then the open loop.
	{Name: "serve.hit_latency_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.overhead_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.queue_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.solve_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.render_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.compile_s_cold", Unit: "s", Better: "lower"},
	{Name: "serve.oneshot_s", Unit: "s", Better: "lower"},
	{Name: "serve.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.shared_solves", Unit: "count", Better: "higher"},
	{Name: "serve.sched_reorders", Unit: "count", Better: "lower"},
	{Name: "serve.rejected_total", Unit: "count", Better: "lower"},
	{Name: "serve.solves", Unit: "count", Better: "lower"},
	{Name: "serve.goodput_rps", Unit: "1/s", Better: "higher"},
	{Name: "serve.open_hit_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.open_miss_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.open_long_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.open_p90_s", Unit: "s", Better: "lower"},
	{Name: "gen.lateness_p90_s", Unit: "s", Better: "lower"},

	// Host and harness.
	{Name: "host.nproc", Unit: "count", Better: "higher"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "host.yardstick_s_p50", Unit: "s", Better: "lower"},
	{Name: "host.yardstick_iqr_share", Unit: "ratio", Better: "lower"},
	{Name: "host.raw_op_s_p50", Unit: "s", Better: "lower"},
	{Name: "host.raw_setup_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.parts_sum_error_max", Unit: "ratio", Better: "lower"},
}

// report is one run's outcome.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	// failures holds the first few failed checks, for the log.
	failures []string
	values   map[string]float64
}

func newReport(workload string, traced bool) *report {
	return &report{workload: workload, traced: traced, values: make(map[string]float64)}
}

// set records a metric; a name outside the tables is a bug in the harness.
func (r *report) set(name string, v float64) {
	if !knownMetric[name] {
		panic("benchmark: unknown metric " + name)
	}
	r.values[name] = v
}

var knownMetric = func() map[string]bool {
	m := make(map[string]bool)
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			m[d.Name] = true
		}
	}
	return m
}()

// fail counts one failed operation and keeps its message.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// defs returns the metric table this run's result line carries: end-to-end
// metrics from an untraced run, per-layer metrics from a traced one.
func (r *report) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// missing lists result-line metrics the run did not produce. End-to-end
// metrics must all be there and non-zero; per-layer metrics default to 0.
func (r *report) missing() []string {
	var out []string
	if r.traced {
		return nil
	}
	for _, d := range endToEnd {
		if v, ok := r.values[d.Name]; !ok || v == 0 {
			out = append(out, d.Name)
		}
	}
	return out
}

// print writes every metric the run produced, by name and unit.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  traced=%v  ops_attempted=%d  ops_failed=%d\n", r.workload, r.traced, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if v, ok := r.values[d.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) result() resultLine {
	out := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0 && len(r.missing()) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	for _, d := range r.defs() {
		out.Metrics[d.Name] = jsonMetric{Value: r.values[d.Name], Unit: d.Unit}
	}
	return out
}
