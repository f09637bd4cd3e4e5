// Package perturb is the seeded schedule-perturbation driver behind
// the icilk_debug invariant builds. Concurrency bugs in the scheduler
// hide in windows a few instructions wide — between a fifoq ticket
// fetch-and-add and the cell publish, between a pool enqueue and its
// bitfield Set, between a deque's suspension and a racing completion.
// The Go scheduler rarely preempts inside those windows, so plain
// stress tests explore a thin slice of the interleaving space. This
// package widens it: every scheduling point in the core packages
// (spawn, sync, get, steal, mug, suspend, resume, abandon, enqueue,
// dequeue) calls At, which — when a test has called Enable(seed) —
// decides deterministically from (seed, call sequence number, point)
// whether to yield the processor or sleep a few microseconds.
//
// Determinism and replay: the *decision sequence* is a pure function
// of the seed, so a failing run is characterized by its seed. The OS
// scheduler still chooses which goroutine runs next after a yield, so
// a replay is not instruction-identical — but re-running a failing
// seed re-applies the same perturbation pattern and in practice
// re-trips the same window within a few attempts, where an unseeded
// stress test may need thousands. Tests name their subtests after the
// seed, so a CI failure log shows exactly which seed to replay:
//
//	ICILK_PERTURB_SEED=0xdecade go test -tags icilk_debug -race -run TestPerturb ./internal/sched/
//
// Call sites in non-test code are guarded by `if invariant.Enabled`,
// so normal builds compile the driver out entirely; At additionally
// self-guards with one atomic load so even debug builds pay almost
// nothing while no perturbation run is active.
package perturb

import (
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"icilk/internal/xrand"
)

// Point identifies a perturbation site class. The point id is mixed
// into the decision hash so that two sites reached at the same global
// sequence number in different runs still make independent choices.
type Point uint64

// Perturbation sites, one per scheduling point named by the paper's
// protocol plus the queue internals whose publish windows the
// invariants guard.
const (
	Spawn Point = 1 + iota
	Sync
	Get
	Steal
	Mug
	Suspend
	Resume
	Abandon
	Enqueue
	Dequeue
	Check      // the frequent bitfield/cancellation check (maybeSwitch)
	Submit     // external submission entering the runtime
	IO         // I/O pool handoff
	Predict    // service-time predictor read/update ordering (internal/predict)
	LoopSplit  // data-parallel split decision: between a loop frame's spawn and its continuation (the window a thief steals the other half in)
	Handoff    // sched: a task has passed its worker's token on and not yet parked (the receiver runs while the passer, which may touch no worker state, is still awake)
	NetDeliver // netpoll: a pass has mapped its fds and not yet completed their futures on the poller (Desc Close and runtime Close race it)
	numPoints
)

var (
	active atomic.Bool
	seed   atomic.Uint64
	seq    atomic.Uint64
)

// Enable starts a perturbation run with the given seed, resetting the
// decision sequence. Tests call this at the top of each seeded subtest.
func Enable(s uint64) {
	seed.Store(s)
	seq.Store(0)
	active.Store(true)
}

// Disable stops perturbing. Always pair with Enable (defer it) so a
// seeded subtest does not leak yields into its siblings.
func Disable() { active.Store(false) }

// Enabled reports whether a perturbation run is active.
func Enabled() bool { return active.Load() }

// Seed returns the active run's seed (for failure messages).
func Seed() uint64 { return seed.Load() }

// decision returns the hash driving one perturbation choice — a pure
// function of (seed, sequence number, point).
func decision(s, n uint64, p Point) uint64 {
	return xrand.Mix(s, n*uint64(numPoints)+uint64(p))
}

// At is a perturbation site: roughly a quarter of the calls yield the
// processor and a sprinkling of those sleep 1-20µs, stretching the
// instruction-wide protocol windows to microseconds so concurrent
// goroutines land inside them. No-op unless Enable is active.
func At(p Point) {
	if !active.Load() {
		return
	}
	h := decision(seed.Load(), seq.Add(1), p)
	switch h & 7 {
	case 0:
		runtime.Gosched()
	case 1:
		if h&0x0700 == 0 {
			time.Sleep(time.Duration(1+(h>>16)%20) * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// Seeds returns the seed matrix for a perturbation test: the single
// seed from ICILK_PERTURB_SEED when set (the replay workflow — the
// value a failed subtest's name reports), otherwise def. CI passes a
// fixed matrix through the environment so failures are reproducible
// bit-for-bit in the decision sequence.
func Seeds(def []uint64) []uint64 {
	if v := os.Getenv("ICILK_PERTURB_SEED"); v != "" {
		if s, err := strconv.ParseUint(v, 0, 64); err == nil {
			return []uint64{s}
		}
	}
	return def
}
