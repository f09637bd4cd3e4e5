package icilk

import (
	"fmt"
	"strings"
)

// Schedulers lists every scheduler kind, in the order the paper
// presents them. Command-line tools iterate this for usage messages
// and per-scheduler runs.
func Schedulers() []Scheduler {
	return []Scheduler{Prompt, Adaptive, AdaptiveAging, AdaptiveGreedy}
}

// SchedulerNames returns the canonical flag-value names, comma
// separated — ready for a flag's usage string.
func SchedulerNames() string {
	names := make([]string, 0, 4)
	for _, k := range Schedulers() {
		names = append(names, k.String())
	}
	return strings.Join(names, ", ")
}

// ParseScheduler maps a scheduler's canonical name (as produced by
// Scheduler.String: "prompt", "adaptive", "adaptive+aging",
// "adaptive-greedy") to its kind. Matching is case-insensitive.
func ParseScheduler(name string) (Scheduler, error) {
	for _, k := range Schedulers() {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown scheduler %q (valid: %s)", name, SchedulerNames())
}
