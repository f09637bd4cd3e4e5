//go:build icilk_debug

package invariant

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Enabled reports whether invariant checking is compiled in. It is a
// typed compile-time constant so that `if invariant.Enabled { ... }`
// blocks — including their argument evaluation — are eliminated as
// dead code in normal builds.
const Enabled = true

// Failf reports an invariant violation by panicking with a prefixed
// message. Violations are protocol bugs, never recoverable conditions,
// so there is no non-panicking mode.
func Failf(format string, args ...any) {
	panic("invariant violation: " + fmt.Sprintf(format, args...))
}

// Checkf asserts cond, failing with the formatted message otherwise.
func Checkf(cond bool, format string, args ...any) {
	if !cond {
		Failf(format, args...)
	}
}

// Eventually asserts a *stability* property: cond may be transiently
// false while another goroutine is mid-protocol (e.g. between its
// enqueue and its bitfield Set), but must become true once the system
// quiesces. The probe yields, then backs off to short sleeps, giving
// the straggler on the order of 100ms of wall time — far beyond any
// legal window, even under heavy perturbation — before declaring the
// property permanently violated.
func Eventually(cond func() bool, format string, args ...any) {
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		if i < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	Failf(format, args...)
}

// Token models a resource with at most one holder — the scheduler's
// worker token, which exactly one task context per worker may hold at
// a time. The tracker follows the baton: whoever passes the token on
// (the worker goroutine handing it out, a task handing it to the next
// task or back home) Releases itself and Acquires for the receiver
// just before the channel send; Check runs on whichever goroutine
// believes it currently holds the token (a task about to act for its
// worker). The atomic.Value makes the cross-goroutine reads race-free;
// the channel handoffs the token models already order the logical
// accesses.
type Token struct {
	v atomic.Value // tokenBox
}

type tokenBox struct{ h any }

// Acquire records h as the holder, failing if the token is already
// held (a double-resume: two task contexts live on one worker).
func (t *Token) Acquire(h any) {
	if b, ok := t.v.Load().(tokenBox); ok && b.h != nil {
		Failf("token double-acquire: held by %p, acquired again by %p", b.h, h)
	}
	t.v.Store(tokenBox{h: h})
}

// Release clears the holder, failing unless h is the current holder
// (the token was passed on by a context that was not resumed).
func (t *Token) Release(h any) {
	b, _ := t.v.Load().(tokenBox)
	if b.h != h {
		Failf("token released by non-holder: held by %p, released by %p", b.h, h)
	}
	t.v.Store(tokenBox{})
}

// Check asserts that h is the current holder — the "nobody acts for a
// worker without its token" rule, checked by a task just before it
// runs its worker's scheduling step.
func (t *Token) Check(h any) {
	b, _ := t.v.Load().(tokenBox)
	if b.h != h {
		Failf("token check failed: held by %p, checked by %p", b.h, h)
	}
}
