// Package prio implements the 64-level priority bitfield at the heart
// of Prompt I-Cilk's promptness mechanism (Section 4 of the paper):
// bit i is set iff priority level i currently has available work. The
// paper manages the field with x86 fetch-and-or / fetch-and-and and
// finds the highest set bit with __builtin_clzll; this implementation
// uses atomic.Uint64.Or/And and math/bits.
//
// Priority convention: level 0 is the HIGHEST priority and level 63
// the lowest, matching the numbering used throughout this repository
// ("highest level with available work" = lowest set bit index).
//
// The package also provides the sleep/wake gate: when the bitfield is
// all-zero, idle workers block on a condition variable instead of
// spinning; the worker whose Set transitions the field from zero to
// non-zero broadcasts to wake all sleepers.
package prio

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"icilk/internal/invariant"
)

// MaxLevels is the number of representable priority levels. The paper
// uses a 64-bit integer for the bitfield, noting that 64 levels is
// "more than enough in the applications we examined".
const MaxLevels = 64

// Bitfield tracks which priority levels have available work and gates
// idle workers. The zero value is not ready; use New.
type Bitfield struct {
	bits    atomic.Uint64
	stopped atomic.Bool

	mu   sync.Mutex
	cond *sync.Cond
	// sleepers counts goroutines currently blocked on cond inside
	// WaitNonZero (guarded by mu). Maintained unconditionally — the
	// sleep path is far off the hot path — so the debug lost-wakeup
	// detector and tests can observe the gate's population.
	sleepers int
	// wakes counts returns from cond.Wait (guarded by mu). A sleeper
	// bumps it and re-checks the field in one critical section, so a
	// test that reads it under mu knows the re-check has happened.
	wakes int
}

// New returns an empty bitfield.
func New() *Bitfield {
	b := &Bitfield{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Set marks level as having work (fetch-and-or). If the field was
// all-zero it wakes every sleeping worker, per the paper: "As soon as
// an active worker sets the bitfield from zero to non-zero, that
// worker will broadcast the condition variable to wake up all sleeping
// workers." It reports whether this call performed that zero→non-zero
// transition.
//
// Set stays out of line. Inlined into a caller's loop, go1.24.0's amd64
// code for the value-returning atomic Or reused the register holding
// the loop's counter, and the loop never ended
// (TestSetInCallerLoopTerminates).
//
//go:noinline
func (b *Bitfield) Set(level int) (wokeSleepers bool) {
	if b.bits.Or(1<<uint(level)) != 0 {
		return false
	}
	b.broadcast()
	return true
}

func (b *Bitfield) broadcast() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Clear marks level as having no work (fetch-and-and).
func (b *Bitfield) Clear(level int) {
	b.bits.And(^uint64(1 << uint(level)))
}

// IsSet reports whether level's bit is currently set.
func (b *Bitfield) IsSet(level int) bool {
	return b.bits.Load()&(1<<uint(level)) != 0
}

// Load returns the raw bitfield.
func (b *Bitfield) Load() uint64 { return b.bits.Load() }

// Highest returns the highest-priority level (lowest index) with work.
// ok is false when the field is all-zero.
func (b *Bitfield) Highest() (level int, ok bool) {
	v := b.bits.Load()
	if v == 0 {
		return 0, false
	}
	return bits.TrailingZeros64(v), true
}

// HigherThan reports whether any level strictly higher-priority than
// level currently has work. This is the check an active worker runs at
// every spawn, sync, fut-create, and get.
func (b *Bitfield) HigherThan(level int) (higher int, ok bool) {
	mask := uint64(1)<<uint(level) - 1 // bits 0..level-1
	v := b.bits.Load() & mask
	if v == 0 {
		return 0, false
	}
	return bits.TrailingZeros64(v), true
}

// DoubleCheckClear implements the paper's clear protocol for a thief
// that found level's pool empty: "if the pool is empty, it clears the
// bit, checks the pool again, and resets the bit if the pool is no
// longer empty, ensuring that the bit should not be left unset for an
// extensive period if a thief clearing the bit interleaves with an
// active worker generating new work." empty must re-probe the pool.
func (b *Bitfield) DoubleCheckClear(level int, empty func() bool) {
	b.Clear(level)
	if !empty() {
		b.Set(level)
	}
}

// WaitNonZero blocks the caller until the bitfield is non-zero or the
// field is stopped. It returns ok=false if stopped. onSleep, if
// non-nil, is invoked once just before the caller first blocks.
//
// awake is the time spent awake inside the call — acquiring the lock,
// checking the field, going to sleep and waking back up — excluding
// the time actually blocked on the condition variable. This matches
// the paper's waste accounting for Prompt I-Cilk, which charges the
// sleep/wake *transitions* (not the idle block, which consumes no
// core) to waste.
//
// wakes is how many times the caller woke from the condition variable.
// Every wake but the last found the field zero again and went back to
// sleep: a broadcast readies every sleeper, and one that reaches the
// lock after another worker has already taken the work and cleared the
// bit sleeps again.
func (b *Bitfield) WaitNonZero(onSleep func()) (awake time.Duration, wakes int, ok bool) {
	t0 := time.Now()
	b.mu.Lock()
	slept := false
	for b.bits.Load() == 0 && !b.stopped.Load() {
		if !slept {
			slept = true
			if onSleep != nil {
				onSleep()
			}
		}
		awake += time.Since(t0)
		b.sleepers++
		b.cond.Wait()
		b.sleepers--
		b.wakes++
		wakes++
		t0 = time.Now()
	}
	b.mu.Unlock()
	return awake + time.Since(t0), wakes, !b.stopped.Load()
}

// Stop wakes all sleepers permanently; subsequent WaitNonZero calls
// return false immediately. Used at runtime shutdown.
func (b *Bitfield) Stop() {
	b.stopped.Store(true)
	b.broadcast()
}

// Stopped reports whether Stop has been called.
func (b *Bitfield) Stopped() bool { return b.stopped.Load() }

// Sleepers returns the number of workers currently blocked on the
// sleep gate (test/diagnostic hook).
func (b *Bitfield) Sleepers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sleepers
}

// CheckNoSleeperStranded is the debug-build lost-wakeup detector for
// the sleep/wake gate: while the bitfield is stably non-zero, no
// worker may remain asleep — the zero→non-zero Set must have
// broadcast, and every sleeper re-checks the field under the mutex
// before blocking, so a sleeper that persists alongside a set bit
// means a wake-up was lost. Sleepers are legal transiently (a woken
// worker needs time to leave cond.Wait, and the field may flap), so
// the probe asserts stability, not an instantaneous state. No-op in
// normal builds.
func (b *Bitfield) CheckNoSleeperStranded() {
	if !invariant.Enabled {
		return
	}
	invariant.Eventually(func() bool {
		b.mu.Lock()
		s := b.sleepers
		b.mu.Unlock()
		return s == 0 || b.bits.Load() == 0 || b.stopped.Load()
	}, "prio: sleeper stranded with non-zero bitfield %#x", b.bits.Load())
}
