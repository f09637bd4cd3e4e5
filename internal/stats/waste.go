package stats

import (
	"sync/atomic"
	"time"
)

// WorkerClock accumulates per-worker time into the categories the
// paper's Section 5 ("Waste and Scheduling Overhead") reports:
//
//   - Work: executing application code.
//   - Overhead: successful steals, muggings, bitfield checks, queue
//     pushes — productive scheduler bookkeeping. Work+Overhead is the
//     paper's "running time".
//   - Waste: looking for work and failing to find it, plus (for Prompt
//     I-Cilk) the time spent going to sleep and waking up when the
//     bitfield transitions between zero and non-zero.
//
// All counters are atomic so that a harness can snapshot them while
// workers run. Times are accumulated in nanoseconds.
//
// The counter block is cache-line padded on both sides: a clock is
// embedded in each worker and written on every context switch, so
// without the padding the hottest counters false-share with whatever
// neighboring worker fields (or adjacent clocks) the allocator packs
// beside them.
type WorkerClock struct {
	_        [64]byte
	work     atomic.Int64
	overhead atomic.Int64
	waste    atomic.Int64

	// Event counters give a time-independent view of scheduler
	// activity, which is more robust than wall time on a timeshared
	// single-CPU host.
	steals       atomic.Int64 // successful steals of a top frame
	muggings     atomic.Int64 // whole-deque muggings
	failedSteals atomic.Int64 // pool/victim probes that found nothing
	sleeps       atomic.Int64 // bitfield-zero sleep transitions
	futileWakes  atomic.Int64 // wakes from the sleep gate that found no work
	abandons     atomic.Int64 // deques abandoned for higher priority
	checks       atomic.Int64 // bitfield/assignment checks at scheduling points
	suspends     atomic.Int64 // deques suspended at a failed get
	spawns       atomic.Int64 // Task.Spawn calls (continuations pushed for thieves)
	_            [64]byte
}

// AddWork adds d to the work category.
func (c *WorkerClock) AddWork(d time.Duration) { c.work.Add(int64(d)) }

// AddOverhead adds d to the overhead category.
func (c *WorkerClock) AddOverhead(d time.Duration) { c.overhead.Add(int64(d)) }

// AddWaste adds d to the waste category.
func (c *WorkerClock) AddWaste(d time.Duration) { c.waste.Add(int64(d)) }

// CountSteal records one successful steal.
func (c *WorkerClock) CountSteal() { c.steals.Add(1) }

// CountMug records one successful mugging.
func (c *WorkerClock) CountMug() { c.muggings.Add(1) }

// CountFailedSteal records one unproductive probe.
func (c *WorkerClock) CountFailedSteal() { c.failedSteals.Add(1) }

// CountSleep records one sleep transition.
func (c *WorkerClock) CountSleep() { c.sleeps.Add(1) }

// CountFutileWakes records n wakes from the sleep gate that found no
// work: the sleeper went back to sleep without leaving the gate, or
// left it and its first attempt to take work came back empty.
func (c *WorkerClock) CountFutileWakes(n int) { c.futileWakes.Add(int64(n)) }

// CountAbandon records one priority-driven deque abandonment.
func (c *WorkerClock) CountAbandon() { c.abandons.Add(1) }

// CountCheck records one scheduling-point priority check (Prompt's
// bitfield read at every spawn/sync/fut-create/get; the
// assignment-changed check for the Adaptive variants).
func (c *WorkerClock) CountCheck() { c.checks.Add(1) }

// CountSuspend records one deque suspension at a failed get.
func (c *WorkerClock) CountSuspend() { c.suspends.Add(1) }

// CountSpawn records one Task.Spawn.
func (c *WorkerClock) CountSpawn() { c.spawns.Add(1) }

// WasteReport is a snapshot of a WorkerClock.
type WasteReport struct {
	Work         time.Duration
	Overhead     time.Duration
	Waste        time.Duration
	Steals       int64
	Muggings     int64
	FailedSteals int64
	Sleeps       int64
	FutileWakes  int64
	Abandons     int64
	Checks       int64
	Suspends     int64
	Spawns       int64
}

// Running returns the paper's "running time": work plus scheduling
// overhead.
func (r WasteReport) Running() time.Duration { return r.Work + r.Overhead }

// Snapshot returns the current totals.
func (c *WorkerClock) Snapshot() WasteReport {
	return WasteReport{
		Work:         time.Duration(c.work.Load()),
		Overhead:     time.Duration(c.overhead.Load()),
		Waste:        time.Duration(c.waste.Load()),
		Steals:       c.steals.Load(),
		Muggings:     c.muggings.Load(),
		FailedSteals: c.failedSteals.Load(),
		Sleeps:       c.sleeps.Load(),
		FutileWakes:  c.futileWakes.Load(),
		Abandons:     c.abandons.Load(),
		Checks:       c.checks.Load(),
		Suspends:     c.suspends.Load(),
		Spawns:       c.spawns.Load(),
	}
}

// Reset zeroes all counters.
func (c *WorkerClock) Reset() {
	c.work.Store(0)
	c.overhead.Store(0)
	c.waste.Store(0)
	c.steals.Store(0)
	c.muggings.Store(0)
	c.failedSteals.Store(0)
	c.sleeps.Store(0)
	c.futileWakes.Store(0)
	c.abandons.Store(0)
	c.checks.Store(0)
	c.suspends.Store(0)
	c.spawns.Store(0)
}
