package main

import (
	"math"
	"testing"
)

// Expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestWindowP99(t *testing.T) {
	// Three 1-s windows of 100 samples; the middle one is slow.
	var due, lat []int64
	for w := int64(0); w < 3; w++ {
		for i := int64(0); i < 100; i++ {
			due = append(due, w*1e9+i*1e7)
			l := i
			if w == 1 {
				l = 1000 + i
			}
			lat = append(lat, l)
		}
	}
	p99, windows, minSamples := windowP99(windowStats(due, lat, 3e9+5e8, 1e9))
	if windows != 3 || minSamples != 100 {
		t.Fatalf("windows %d, minSamples %d", windows, minSamples)
	}
	if p99 != 98 { // window p99s are 98, 1098, 98: the median ignores the slow window
		t.Errorf("p99 = %v, want 98", p99)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p99_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "sat_ops_s", Better: "higher", Bound: 0.05}
	base := []float64{100, 101, 99}
	for _, c := range []struct {
		spec metricSpec
		cand []float64
		late int
		want string
	}{
		{lower, []float64{104, 105, 103}, 0, "within"},
		{lower, []float64{120, 121, 119}, 0, "worse"},
		{lower, []float64{80, 81, 79}, 0, "better"},
		{higher, []float64{90, 91, 89}, 0, "worse"},
		{higher, []float64{110, 111, 109}, 0, "better"},
		{lower, []float64{80, 120, 100}, 0, "unresolved (spread 40.0% of median)"},
		{lower, []float64{120, 121, 119}, 2, "worse"}, // the runs that were on time still decide
		{lower, nil, 3, "unresolved (every run gen_late)"},
	} {
		if got := verdict(c.spec, base, c.cand, c.late).word; got != c.want {
			t.Errorf("%s %v: got %q, want %q", c.spec.Name, c.cand, got, c.want)
		}
	}
}

// A late run leaves the latency metrics' sample and stays in the
// others'.
func TestValuesDropLateRuns(t *testing.T) {
	run := func(late bool, v float64) *result {
		r := &result{GenLate: late}
		r.Metrics = map[string]metricValue{"p99_ms": {Value: v}, "sat_ops_s": {Value: v}}
		return r
	}
	rs := []*result{run(false, 1), run(true, 2), run(false, 3)}
	if v, late := values(rs, "p99_ms"); len(v) != 2 || late != 1 {
		t.Errorf("p99_ms: values %v, late %d; want two values and one dropped", v, late)
	}
	if v, late := values(rs, "sat_ops_s"); len(v) != 3 || late != 0 {
		t.Errorf("sat_ops_s: values %v, late %d; want all three", v, late)
	}
}
