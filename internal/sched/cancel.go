package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements cooperative cancellation and deadlines — the
// mechanism beneath the admission-control subsystem's "abandon doomed
// work early" behaviour. The design mirrors the promptness bitfield:
// a task tree shares one cancelState, and the same frequent check
// performed at every spawn / sync / fut-create / get / yield (see
// Task.maybeSwitch) also observes the cancellation flag. A cancelled
// task therefore unwinds at its next token handoff: the scheduling
// point panics with a private sentinel, Task.runBody recovers it,
// outstanding spawned children are joined (they share the flag and
// unwind just as promptly), and the task finishes with the
// cancellation cause attached to its future. No new scheduling-point
// cost is added for non-cancellable tasks: the check is a single nil
// comparison.

// cancelState is the shared cancellation signal of one submitted task
// tree (a root future routine plus everything it spawns or
// fut-creates). It fires at most once; the first cause wins.
type cancelState struct {
	// fired is the hot-path flag read at every scheduling point.
	fired atomic.Bool

	mu  sync.Mutex
	err error // cause; non-nil exactly when fired

	// timer is the deadline timer (SubmitFutureWithDeadline), stopped
	// when the root task finishes so that completed requests do not pin
	// timers until their deadline.
	timer *time.Timer
}

// cancel fires the state with cause err (first call wins).
func (c *cancelState) cancel(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		c.fired.Store(true)
	}
	c.mu.Unlock()
}

// Err returns the cancellation cause, or nil while the state has not
// fired.
func (c *cancelState) Err() error {
	if !c.fired.Load() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// canceledUnwind is the panic sentinel a cancelled task throws at its
// next scheduling point; Task.runBody recovers it and routes the task
// to its normal finish path.
type canceledUnwind struct{}

// Err returns the task's cancellation cause: nil while the task may
// keep running, context.DeadlineExceeded after its submission
// deadline passed. Cooperative code can check it to stop cleanly
// before the next scheduling point unwinds the task automatically.
func (t *Task) Err() error {
	if c := t.cancel; c != nil {
		return c.Err()
	}
	return nil
}

// checkCancel panics with the unwind sentinel if the task's tree has
// been cancelled. Called from every scheduling point.
func (t *Task) checkCancel() {
	if c := t.cancel; c != nil && c.fired.Load() {
		panic(canceledUnwind{})
	}
}

// joinOutstanding is Sync without the scheduling-point checks, used
// while unwinding a cancelled task: the children being joined share
// the fired cancel state and unwind at their own next scheduling
// points, so the wait is brief.
func (t *Task) joinOutstanding() {
	for {
		v := t.joins.Load()
		if v == 0 {
			return
		}
		if t.joins.CompareAndSwap(v, v|syncBit) {
			break
		}
	}
	t.parkAfter(yieldMsg{kind: ySyncWait})
}

// SubmitFutureWithDeadline injects fn as a root future routine at the
// given level with a per-request deadline: if the routine (and
// everything it spawns) has not completed within timeout, the task
// tree is cancelled and unwinds at its next scheduling points, and
// the future completes with Err() == context.DeadlineExceeded. A
// non-positive timeout submits without a deadline. A tree whose
// deadline passes while it is still queued never runs its body.
//
// Because cancellation is cooperative, the deadline does not bound
// time spent suspended in Get on an unfinished (I/O) future: the task
// stays parked until that future completes and unwinds immediately on
// resume (see Future.Get). Its admission occupancy remains charged
// for the duration of the I/O wait.
func (rt *Runtime) SubmitFutureWithDeadline(level int, timeout time.Duration, fn func(*Task) any) *Future {
	if timeout <= 0 {
		return rt.SubmitFuture(level, fn)
	}
	if level < 0 || level >= rt.cfg.Levels {
		panic(submitLevelError(level, rt.cfg.Levels))
	}
	c := &cancelState{}
	c.timer = time.AfterFunc(timeout, func() { c.cancel(context.DeadlineExceeded) })
	f := rt.newFuture(nil, int32(level))
	rt.inflight.Add(1)
	n := rt.newNode(nil, level, nil, futFrame(fn))
	n.t.fut = f
	n.t.inflightRoot = true
	n.t.cancel = c
	n.t.cancelRoot = true
	rt.submitNode(n, level)
	return f
}
