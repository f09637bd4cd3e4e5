package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain implements `benchmark compare A B [A2 B2 ...]`: the
// arguments alternate base and candidate; each is a result file or a
// directory of them. Per workload and end-to-end metric it prints both
// sides' median and quartiles and one verdict. This table is all the
// gating there is.
func compareMain(args []string) int {
	if len(args) < 2 || len(args)%2 != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A B [A2 B2 ...]   (result files or directories, base first)")
		return 2
	}
	var sides [2][]*result
	for i, arg := range args {
		rs, err := loadResults(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		sides[i%2] = append(sides[i%2], rs...)
	}
	worse := false
	for _, wl := range workloadNames {
		a, b := pick(sides[0], wl), pick(sides[1], wl)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		fmt.Printf("%s  (base %d runs, candidate %d runs)\n", wl, len(a), len(b))
		fmt.Printf("  %-14s %-8s %34s %34s %9s %7s  %s\n", "metric", "unit", "base median [q1, q3]", "candidate median [q1, q3]", "cand/base", "bound", "verdict")
		for _, spec := range endToEnd {
			if !spec.appliesTo(wl) {
				continue
			}
			av, alate := values(a, spec.Name)
			bv, blate := values(b, spec.Name)
			v := verdict(spec, av, bv, alate+blate)
			fmt.Printf("  %-14s %-8s %34s %34s %9.4f %6.1f%%  %s\n", spec.Name, spec.Unit, v.base, v.cand, v.ratio, 100*spec.Bound, v.word+v.note)
			worse = worse || v.word == "worse"
		}
	}
	if worse {
		return 1
	}
	return 0
}

func loadResults(path string) ([]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		var err error
		if files, err = filepath.Glob(filepath.Join(path, "*-trace0.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r := &result{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, nil
}

func pick(rs []*result, workload string) []*result {
	var out []*result
	for _, r := range rs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

// values collects one metric over a side's runs. A run whose
// generator ran late is left out of the latency metrics, which are
// then the generator's numbers and not the system's; late counts the
// runs dropped.
func values(rs []*result, name string) (vals []float64, late int) {
	for _, r := range rs {
		m, ok := r.Metrics[name]
		switch {
		case !ok:
		case r.GenLate && latencyMetric(name):
			late++
		default:
			vals = append(vals, m.Value)
		}
	}
	return vals, late
}

type verdictRow struct {
	base, cand string
	ratio      float64
	word       string // better, within, worse, or unresolved (why)
	note       string // runs dropped, if any
}

// latencyMetric reports whether a late generator invalidates name.
func latencyMetric(name string) bool {
	switch name {
	case "p50_ms", "p99_ms", "hi_p99_ms", "lo_p99_ms", "ok_frac":
		return true
	}
	return false
}

// verdict applies the benchmark's one rule. The candidate is worse
// (better) when its median is beyond the base's by more than the
// bound in the bad (good) direction; unresolved when either side's
// interquartile spread exceeds the bound, so the medians cannot carry
// that judgement, or when dropping late runs left a side empty. late
// is how many runs were dropped; the row says so.
func verdict(spec metricSpec, a, b []float64, late int) verdictRow {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	row := verdictRow{
		base:  fmt.Sprintf("%.6g [%.6g, %.6g]", am, aq1, aq3),
		cand:  fmt.Sprintf("%.6g [%.6g, %.6g]", bm, bq1, bq3),
		ratio: bm / am,
	}
	change := (bm - am) / math.Abs(am) // > 0: the number went up
	if spec.Better == "higher" {
		change = -change
	}
	spread := math.Max((aq3-aq1)/math.Abs(am), (bq3-bq1)/math.Abs(bm))
	switch {
	case math.IsNaN(change) && late > 0:
		row.word = "unresolved (every run gen_late)"
	case math.IsNaN(change):
		row.word = "unresolved (no data)"
	case spread > spec.Bound:
		row.word = fmt.Sprintf("unresolved (spread %.1f%% of median)", 100*spread)
	case change > spec.Bound:
		row.word = "worse"
	case change < -spec.Bound:
		row.word = "better"
	default:
		row.word = "within"
	}
	if late > 0 && !math.IsNaN(change) {
		row.note = fmt.Sprintf("  [%d gen_late runs dropped]", late)
	}
	return row
}
