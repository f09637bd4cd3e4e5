package main

import (
	"testing"
)

// TestSmoke runs every workload end to end and traced at the -smoke
// length. It checks the harness, not the system: every metric name
// present and finite, and no operation failed.
func TestSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("timing harness; the pacer is not meaningful under -race")
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 1, seconds: smokeSeconds, trace: trace, smoke: true, outDir: t.TempDir()}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if miss := res.missing(); len(miss) > 0 {
				t.Errorf("%s trace=%v: metrics missing or not finite: %v", name, trace, miss)
			}
			// Nothing beyond the spec either: a metric scoped to one
			// workload must not show up on another.
			if want := res.expected(); len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics produced, spec has %d for this workload", name, trace, len(res.Metrics), len(want))
			}
			if res.Failed > 0 || res.Attempted == 0 || !res.Correct {
				t.Errorf("%s trace=%v: attempted %d, failed %d, correct %v", name, trace, res.Attempted, res.Failed, res.Correct)
			}
		}
	}
}
