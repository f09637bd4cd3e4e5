package sched

import (
	"fmt"
	"sync"
	"sync/atomic"

	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
	"icilk/internal/trace"
)

// Future is the handle returned by FutCreate, SubmitFuture, and
// NewIOFuture. A future completes exactly once — when its routine
// returns, or when external code (an I/O handler thread) calls
// Complete. Get is the task-side wait; Wait is for plain goroutines
// outside the runtime (clients, harnesses).
//
// I/O futures (Section 2: "I/Os in Prompt I-Cilk are expressed using
// I/O futures, a special type of future") are Futures completed by the
// I/O subsystem rather than by a task; the scheduler treats both
// identically: a failed Get suspends the caller's whole deque, and
// completion makes every waiting deque resumable and re-enqueues it.
type Future struct {
	rt *Runtime

	// done flips to true once per completion, after val is written;
	// completed-future Get/TryGet/Done read it lock-free (the atomic
	// store/load pair orders the val write before any observer's val
	// read). Only Rearm flips it back.
	done atomic.Bool

	mu sync.Mutex

	// ownerLevel is the priority level of the task computing this
	// future, or -1 for externally-completed (I/O) futures; Rearm's
	// icilk_debug check reads it to refuse a task-backed future. It is
	// an int32 in the padding beside done and mu so an I/O future stays
	// in the 144-byte size class and a futBlock in the 4864-byte one
	// (TestFutureSizeClass).
	ownerLevel int32

	val     any
	errv    error         // completion error (cancellation cause); written before done
	waiter1 *dq           // first deque suspended on this future (see Get)
	waiters []*dq         // second and later suspended deques, in suspend order
	onDone1 func(error)   // first completion callback (see OnComplete)
	onDone  []func(error) // second and later callbacks, in registration order

	// ch wakes external waiters, in one of two forms told apart by
	// capacity. Capacity 1: a lone Wait parks on a channel borrowed from
	// the runtime's waitChans, and completion sends on it once and
	// forgets it.
	// Capacity 0: WaitChan's channel, made lazily and closed at
	// completion; a second waiter replaces a borrowed channel with one
	// (see WaitChan). Futures only ever observed by tasks (the common
	// case) never have either.
	ch chan struct{}

	// result stages the future routine's return value between the
	// routine returning and finish() publishing it; only the task
	// goroutine touches it.
	result any
}

// futBlockSize is how many futures one allocation holds (futBlock).
const futBlockSize = 32

// futBlock is the allocation task-backed futures are carved from: a
// slot is claimed with one atomic add, so FutCreate and SubmitFuture
// cost the allocator 1/futBlockSize of an object. A block is never
// reused; the GC frees it once none of its futures is reachable, so one
// live future keeps up to futBlockSize-1 completed neighbours and their
// values alive with it. Blocks belong to one runtime (its shared block
// and each worker's own), so a future never pins another runtime.
type futBlock struct {
	next atomic.Int32 // slots claimed; past futBlockSize the block is spent
	f    [futBlockSize]Future
}

// newFuture claims a future computed at level from w's block — the
// caller holds w's token — or, for a nil w, from the runtime's shared
// block, starting a new block when the current one is spent.
func (rt *Runtime) newFuture(w *worker, level int32) *Future {
	cur := &rt.futs
	if w != nil {
		cur = &w.futs
	}
	var f *Future
	if b := cur.Load(); b != nil {
		if i := b.next.Add(1) - 1; i < futBlockSize {
			f = &b.f[i]
		}
	}
	if f == nil {
		// Racing claimants each start a block; the last stored stays
		// current and the others' spare slots are dropped.
		b := new(futBlock)
		b.next.Store(1)
		cur.Store(b)
		f = &b.f[0]
	}
	if invariant.Enabled {
		invariant.Checkf(f.rt == nil, "sched: future slot handed out twice")
	}
	f.rt, f.ownerLevel = rt, level
	return f
}

// NewIOFuture creates a future that will be completed externally via
// Complete — the runtime's representation of an in-flight I/O
// operation. It is allocated on its own, not from a block: an I/O
// future is rearmed and lives as long as its connection, and in a
// block it would keep its neighbours alive as long.
func (rt *Runtime) NewIOFuture() *Future { return &Future{rt: rt, ownerLevel: -1} }

// Complete fulfills the future with v. It must be called exactly once
// and only for externally-completed (I/O) futures; futures backed by a
// task routine complete themselves.
func (f *Future) Complete(v any) { f.complete(v) }

// complete publishes the value and makes every waiting deque
// resumable, re-enqueuing it into its level's pool.
func (f *Future) complete(v any) { f.completeWith(v, nil) }

// completeWith is complete carrying a completion error — the
// cancellation cause of a task tree that was cut short by a deadline
// or an explicit cancel (see Err).
func (f *Future) completeWith(v any, err error) {
	f.mu.Lock()
	if f.done.Load() {
		f.mu.Unlock()
		panic("sched: future completed twice")
	}
	f.val = v
	f.errv = err
	f.done.Store(true)
	w1, ws := f.waiter1, f.waiters
	f.waiter1, f.waiters = nil, nil
	cb1, cbs := f.onDone1, f.onDone
	f.onDone1, f.onDone = nil, nil
	if f.ch != nil {
		if cap(f.ch) == 0 {
			close(f.ch)
		} else {
			f.ch <- struct{}{} // the lone Wait's borrowed channel: empty, never blocks
			f.ch = nil
		}
	}
	f.mu.Unlock()

	if cb1 != nil {
		cb1(err)
	}
	for _, fn := range cbs {
		fn(err)
	}
	// From here on only locals and the immutable f.rt may be touched:
	// the moment the last waiter is resumable its task may Rearm f and
	// start the next operation on it.
	rt := f.rt
	if w1 != nil {
		rt.resumeWaiter(w1)
	}
	for _, d := range ws {
		rt.resumeWaiter(d)
	}
}

// resumeWaiter makes one deque that suspended in Get resumable and
// hands it back to its level's pool.
func (rt *Runtime) resumeWaiter(d *dq) {
	if invariant.Enabled {
		// Stretch the completion-to-resume window per waiter: the
		// owner that suspended this deque may still be between its
		// Suspend and its park.
		perturb.At(perturb.Resume)
	}
	needsEnqueue := d.MarkResumable()
	rt.resumes.Add(1)
	rt.trace.Add(trace.Resume, -1, d.Level())
	rt.pol.onResumable(d, needsEnqueue)
}

// Rearm returns a completed I/O future to the pending state, so one
// future (and the completion callback bound to it) can stand for every
// operation of a strictly sequential stream — a connection's reads —
// instead of being allocated per operation. It is legal only between
// operations: the future is externally completed, its completion has
// been observed (Get returned, or Done reported true), and nothing is
// registered on it. The caller must Rearm before it hands the
// completion callback out again, never after; the previous completion
// may still be running its tail, which touches nothing of f.
func (f *Future) Rearm() {
	f.mu.Lock()
	if invariant.Enabled {
		// Waiters and callbacks imply pending, so they are checked
		// first: each misuse reports its own cause.
		invariant.Checkf(f.ownerLevel == -1,
			"sched: Rearm of a task-backed future (level %d)", f.ownerLevel)
		invariant.Checkf(f.waiter1 == nil && len(f.waiters) == 0,
			"sched: Rearm of a future with suspended waiters")
		invariant.Checkf(f.onDone1 == nil && len(f.onDone) == 0,
			"sched: Rearm of a future with registered OnComplete callbacks")
		invariant.Checkf(f.done.Load(), "sched: Rearm of a pending future")
	}
	f.val, f.errv, f.ch = nil, nil, nil
	f.done.Store(false)
	f.mu.Unlock()
}

// TryGet returns the value if the future is already complete.
func (f *Future) TryGet() (any, bool) {
	if f.done.Load() {
		return f.val, true
	}
	return nil, false
}

// Done reports whether the future has completed.
func (f *Future) Done() bool {
	return f.done.Load()
}

// OnComplete registers fn to run exactly once with the future's
// completion error, on every completion path — normal return,
// cancellation unwind, and the queued-past-deadline case where the
// routine's body never executes at all. An already-complete future
// invokes fn immediately on the caller; otherwise fn runs on the
// goroutine performing completion and must not block. The admission
// subsystem uses this to release occupancy charges reliably. Callbacks
// run in registration order; the first is held inline, so the common
// one-callback future allocates no slice.
func (f *Future) OnComplete(fn func(error)) {
	f.mu.Lock()
	if f.done.Load() {
		f.mu.Unlock()
		fn(f.errv)
		return
	}
	if f.onDone1 == nil {
		f.onDone1 = fn
	} else {
		f.onDone = append(f.onDone, fn)
	}
	f.mu.Unlock()
}

// Err returns the completion error: nil while the future is pending
// or after a normal completion; context.DeadlineExceeded or the
// cancellation cause when the computing task tree was cancelled
// before finishing (its value is then whatever the unwound routine
// left behind — usually nil). The errv write is ordered before the
// done store, so the lock-free read is safe.
func (f *Future) Err() error {
	if !f.done.Load() {
		return nil
	}
	return f.errv
}

// Get returns the future's value, suspending the calling task's whole
// deque if the future is not yet complete (proactive work stealing's
// failed-get rule: "the worker suspends the deque and tries to find
// work via work stealing").
//
// Cancellation is cooperative, so a deadline does not bound the wait
// itself: a task suspended here can only be woken by the future
// completing. A cancellation that fired during the wait is observed
// the moment the task resumes, unwinding it before the continuation
// runs.
func (f *Future) Get(t *Task) any {
	t.maybeSwitch()
	if invariant.Enabled {
		perturb.At(perturb.Get)
	}
	if f.done.Load() {
		// Completed-future fast path: done was stored after val, so
		// the value read here is ordered; no lock, no suspension.
		return f.val
	}
	f.mu.Lock()
	if f.done.Load() {
		v := f.val
		f.mu.Unlock()
		return v
	}
	// Suspend under f.mu so a concurrent completion cannot observe the
	// waiter before the deque is in the Suspended state. Lock order
	// f.mu → d.mu is used by completion as well.
	d := t.w.active
	d.Suspend(t.n)
	// The first waiter sits inline (the usual single-waiter future —
	// every I/O future — allocates no slice); later ones spill, and
	// completion resumes them in suspend order.
	if f.waiter1 == nil {
		f.waiter1 = d
	} else {
		f.waiters = append(f.waiters, d)
	}
	f.mu.Unlock()
	if invariant.Enabled {
		// The deque is Suspended and registered; a completion arriving
		// now makes it resumable — and muggable — before the owner parks.
		perturb.At(perturb.Suspend)
	}
	t.w.clock.CountSuspend()
	t.rt.trace.Add(trace.Suspend, t.w.id, t.level)

	t.rt.pol.onSuspend(t.w, d)
	t.parkAfter(yieldMsg{kind: yGetWait})

	// Resumed: the future must be complete. A deadline that fired
	// while we were suspended could not interrupt the wait (completion
	// is the only wake-up), so re-check cancellation now instead of
	// letting a doomed task run its continuation until the next
	// scheduling point.
	t.checkCancel()
	return f.val
}

// Wait blocks the calling (non-task) goroutine until completion and
// returns the value. Load generators and tests use this. A lone waiter
// parks on a channel from its runtime's list (Runtime.waitChans), so
// Wait allocates nothing; a second concurrent one moves both onto
// WaitChan's.
func (f *Future) Wait() any {
	if f.done.Load() {
		return f.val
	}
	f.mu.Lock()
	if f.ch == nil && !f.done.Load() {
		rt := f.rt
		var c chan struct{}
		select {
		case c = <-rt.waitChans:
		default:
			c = make(chan struct{}, 1)
		}
		f.ch = c
		f.mu.Unlock()
		<-c
		if invariant.Enabled {
			invariant.Checkf(len(c) == 0, "sched: lone-waiter channel recycled non-empty")
		}
		select {
		case rt.waitChans <- c:
		default:
		}
		if f.done.Load() {
			return f.val
		}
		// Woken by WaitChan taking the slot over: wait on its channel.
	} else {
		f.mu.Unlock()
	}
	<-f.WaitChan()
	return f.val
}

// WaitChan returns a channel closed at completion, for select loops.
func (f *Future) WaitChan() <-chan struct{} {
	f.mu.Lock()
	if f.ch == nil || cap(f.ch) != 0 {
		if f.ch != nil {
			// A lone Wait is parked on a borrowed channel: wake it to
			// move onto the one made here.
			f.ch <- struct{}{}
		}
		f.ch = make(chan struct{})
		if f.done.Load() {
			close(f.ch)
		}
	}
	ch := f.ch
	f.mu.Unlock()
	return ch
}

// submitNode wraps a fresh node in a resumable deque at the given
// level and hands it to the policy's pool — the "toss" of footnote 3
// and the entry path for external submissions.
func (rt *Runtime) submitNode(n *node, level int) {
	d := rt.newDeque(level)
	d.Suspend(n)
	if invariant.Enabled {
		perturb.At(perturb.Submit)
	}
	needsEnqueue := d.MarkResumable()
	rt.resumes.Add(1)
	rt.pol.onResumable(d, needsEnqueue)
}

// SubmitFuture injects fn as a new future routine at the given level
// from outside the runtime (server accept loops, request generators).
// Safe to call from any goroutine.
func (rt *Runtime) SubmitFuture(level int, fn func(*Task) any) *Future {
	if level < 0 || level >= rt.cfg.Levels {
		panic(submitLevelError(level, rt.cfg.Levels))
	}
	f := rt.newFuture(nil, int32(level))
	rt.inflight.Add(1)
	n := rt.newNode(nil, level, nil, futFrame(fn))
	n.t.fut = f
	n.t.inflightRoot = true
	rt.submitNode(n, level)
	return f
}

// Run executes fn as a level-0 future routine and blocks until it
// returns, propagating its result — the simplest way to run a
// fork-join computation to completion.
func (rt *Runtime) Run(fn func(*Task) any) any {
	return rt.SubmitFuture(0, fn).Wait()
}

// submitLevelError formats the panic message for an out-of-range
// submission level (shared by every Submit variant).
func submitLevelError(level, levels int) string {
	return fmt.Sprintf("sched: SubmitFuture level %d out of range [0,%d)", level, levels)
}
