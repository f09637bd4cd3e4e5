package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root is what a driver reads; the
// tables in result.go are what the program prints. They must agree.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		metricSpec
		Bound float64 `json:"bound"` // the driver's; shadows metricSpec.Bound
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	same := func(list string, got []jsonMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: json has %d metrics, program %d", list, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: json %s/%s/%s, program %s/%s/%s", list, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, driverSpecs(false))
	same("per_layer", spec.PerLayer, driverSpecs(true))
	// The driver's bound is Gate: within what a driver accepts, and
	// never tighter than the bound compare judges by.
	for i, want := range driverSpecs(false) {
		if i < len(spec.EndToEnd) && spec.EndToEnd[i].Bound != want.Gate {
			t.Errorf("%s: json bound %v, program %v", want.Name, spec.EndToEnd[i].Bound, want.Gate)
		}
		if want.Gate < want.Bound || want.Gate > 0.25 {
			t.Errorf("%s: driver bound %v outside [%v, 0.25]", want.Name, want.Gate, want.Bound)
		}
	}
	// Every workload a metric is scoped to exists.
	for _, m := range endToEnd {
		for _, w := range m.Workloads {
			if _, err := newWorkload(w); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
		}
	}
}
