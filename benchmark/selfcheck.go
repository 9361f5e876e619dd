package main

import (
	"fmt"
	"io"
	"math"
)

// noisyHostShare is the yardstick spread above which the self-check reports
// noisy_host instead of failing: a host whose own reference kernel moves that
// much cannot tell a regression from its own noise.
const noisyHostShare = 0.25

// comparison is one (workload, metric) row of the self-check: two sets of
// runs of the same code, which must agree within the metric's bound.
type comparison struct {
	workload   string
	def        metricDef
	a, b       []float64
	medA, medB float64
	// diff is |median B − median A| as a share of median A.
	diff float64
	ok   bool
}

func compareSets(workload string, def metricDef, a, b []float64) comparison {
	c := comparison{workload: workload, def: def, a: a, b: b, medA: median(a), medB: median(b)}
	if c.medA != 0 {
		c.diff = math.Abs(c.medB-c.medA) / math.Abs(c.medA)
	}
	c.ok = c.diff <= def.Bound
	return c
}

// exactMismatches lists the exact counts (≡) that did not repeat across runs.
func exactMismatches(workload string, runs []*report) []string {
	var out []string
	for _, d := range perLayer {
		if !d.Exact {
			continue
		}
		for _, r := range runs[1:] {
			if r.values[d.Name] != runs[0].values[d.Name] {
				out = append(out, fmt.Sprintf("%s %s: %v, then %v", workload, d.Name, runs[0].values[d.Name], r.values[d.Name]))
				break
			}
		}
	}
	return out
}

// selfCheck runs two sets of repeat untraced runs of every workload back to
// back with one seed, prints per (workload, metric) the medians, quartiles
// and relative difference of the two sets, and reports whether same code
// agrees with itself: every difference within the metric's bound, every exact
// count identical across all runs, no failed operation. On a noisy host
// (yardstick IQR share above noisyHostShare) differences are flagged, not
// failed.
func selfCheck(w io.Writer, seed uint64, sz sizes, repeat int) (ok bool, err error) {
	sets := [2]map[string][]*report{{}, {}}
	for s := range sets {
		for _, wl := range workloads {
			for k := 0; k < repeat; k++ {
				r, err := wl.run(seed, sz, nil)
				if err != nil {
					return false, fmt.Errorf("%s: %w", wl.name, err)
				}
				fmt.Fprintf(w, "set %d %-18s run %d: op_s_p50 %.6g s  failed %d/%d  yardstick iqr %.3f\n",
					s+1, wl.name, k+1, r.values["op_s_p50"], r.failed, r.attempted, r.values["host.yardstick_iqr_share"])
				sets[s][wl.name] = append(sets[s][wl.name], r)
			}
		}
	}

	ok = true
	var yardSpread []float64
	fmt.Fprintf(w, "\n%-18s %-20s %12s %25s %12s %25s %8s %6s\n",
		"workload", "metric", "median 1", "quartiles 1", "median 2", "quartiles 2", "diff", "bound")
	var rows []comparison
	for _, wl := range workloads {
		all := append(append([]*report(nil), sets[0][wl.name]...), sets[1][wl.name]...)
		for _, r := range all {
			yardSpread = append(yardSpread, r.values["host.yardstick_iqr_share"])
			if r.failed > 0 || len(r.missing()) > 0 {
				ok = false
				fmt.Fprintf(w, "FAILED RUN %s: %d failed ops, missing %v %v\n", wl.name, r.failed, r.missing(), r.failures)
			}
		}
		for _, m := range exactMismatches(wl.name, all) {
			ok = false
			fmt.Fprintf(w, "EXACT COUNT MOVED %s\n", m)
		}
		for _, d := range endToEnd {
			col := func(runs []*report) []float64 {
				var out []float64
				for _, r := range runs {
					out = append(out, r.values[d.Name])
				}
				return out
			}
			rows = append(rows, compareSets(wl.name, d, col(sets[0][wl.name]), col(sets[1][wl.name])))
		}
	}
	noisy := median(yardSpread) > noisyHostShare
	for _, c := range rows {
		a1, a3 := quartiles(c.a)
		b1, b3 := quartiles(c.b)
		verdict := ""
		if !c.ok {
			verdict = "  OUTSIDE BOUND"
			if !noisy {
				ok = false
			}
		}
		fmt.Fprintf(w, "%-18s %-20s %12.6g %12.6g–%-12.6g %12.6g %12.6g–%-12.6g %7.2f%% %5.0f%%%s\n",
			c.workload, c.def.Name, c.medA, a1, a3, c.medB, b1, b3, 100*c.diff, 100*c.def.Bound, verdict)
	}
	if noisy {
		fmt.Fprintf(w, "noisy_host: median yardstick IQR share %.3f > %.2f — differences flagged, not failed\n", median(yardSpread), noisyHostShare)
	}
	return ok, nil
}
