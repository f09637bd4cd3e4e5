package sched

// Priority-inversion detection. The prior work the paper builds on
// ([29-32]) contributes *static* type systems that reject programs in
// which a higher-priority task can wait for a lower-priority one —
// the precondition for the prompt scheduler's response-time bounds.
// Go has no such type-system hook, so this runtime provides the
// dynamic equivalent: every future get is checked at runtime, and
// gets by a higher-priority task of futures computed at a strictly
// lower-priority level are counted (and, for tests and tools,
// observable via a callback).
//
// A non-zero inversion count means the program's priority assignment
// violates the well-formedness condition under which the paper's
// bounded-response-time guarantees hold; the scheduler still executes
// the program correctly, it just cannot promise responsiveness for
// the inverted waits.

import "sync/atomic"

// inversionState is embedded in Runtime.
type inversionState struct {
	count atomic.Int64
	// onInversion, if set before any tasks run, observes each event.
	onInversion func()
}

// Inversions returns the number of priority-inverted waits observed
// since the runtime started.
func (rt *Runtime) Inversions() int64 { return rt.inv.count.Load() }

// OnInversion registers a callback invoked on every detected
// inversion. It must be set before work is submitted; it runs on the
// detecting task's goroutine and must be fast and non-blocking.
func (rt *Runtime) OnInversion(fn func()) { rt.inv.onInversion = fn }

// checkGetInversion flags a get by task t on future f computed at a
// strictly lower-priority level. I/O futures (ownerLevel < 0) never
// invert: their completion is driven by external events, not by
// scheduler-subordinated work.
func (rt *Runtime) checkGetInversion(t *Task, f *Future) {
	if f.ownerLevel >= 0 && t.level < int(f.ownerLevel) {
		rt.inv.count.Add(1)
		if fn := rt.inv.onInversion; fn != nil {
			fn()
		}
	}
}
