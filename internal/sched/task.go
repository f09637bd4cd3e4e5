package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
	"icilk/internal/trace"
)

// node is the schedulable unit: a gated goroutine awaiting a worker
// token. A node is, at any moment, in exactly one of these places:
// running on a worker (holding the token), parked as a frame in a
// deque's item stack (a spawn/fut-create continuation), parked as a
// deque's blocked/ready bottom, parked at a failed sync awaiting its
// last child, in flight between a pool pop and its first resume, or
// parked on a free list (a worker's or the runtime's) awaiting its
// next task body.
type node struct {
	// resume carries the worker token. Capacity 1: a resumer may post
	// the token before the task goroutine has finished parking (the
	// park protocol is "post yield, then receive resume", and a thief
	// can legally mug the deque in between). A nil token is the
	// shutdown poison for free-listed contexts (see Runtime.Close).
	resume chan *worker
	t      *Task

	// recs is the context's stack of parked fork records (TakeFrame,
	// ParkFrame), touched only by the goroutine running on the context.
	recs []any
}

// syncBit is the sentinel OR-ed into Task.joins while the task is
// parked at a failed sync. joins therefore encodes both the
// outstanding-children count (low bits) and the at-sync flag in a
// single word, so the join protocol is one atomic Add on the child
// side and one CAS on the parent side — no mutex.
const syncBit = int64(1) << 32

// Task is the per-task context passed to every task function. All its
// methods must be called from the task's own goroutine.
type Task struct {
	rt     *Runtime
	w      *worker // current worker; rewritten at every resume
	n      *node
	level  int
	parent *Task

	// joins counts outstanding spawned children, with syncBit set
	// while the task is parked at a failed sync (the classic join
	// counter with a sentinel encoding).
	joins atomic.Int64

	// cancel is the shared cancellation state of this task's tree
	// (nil for non-cancellable submissions — the common case, costing
	// one nil check per scheduling point). cancelRoot marks the root
	// task that owns the state's deadline timer. cause is the
	// cancellation cause snapshotted by runBody at body exit; finish
	// attaches it to the future. Snapshotting at exit rather than
	// re-reading the cancel state in finish narrows the window in
	// which a deadline firing just after a successful return would
	// discard the computed value.
	cancel     *cancelState
	cancelRoot bool
	cause      error

	// body is what the task runs — a spawned function or record, or a
	// future routine storing into fut. Non-nil while the task runs and
	// cleared at finish, so a free-listed context pins no user objects.
	body Frame
	fut  *Future // non-nil if this task computes a future

	// inflightRoot marks externally submitted root futures whose
	// completion decrements Runtime.inflight.
	inflightRoot bool
}

// Frame is a task body in record form: the spawned task runs RunFrame
// once. A caller whose closure would capture its inputs and a result
// slot spawns one record holding both instead (the data-parallel
// splits do); a plain function is its own frame (funcFrame), which the
// interface holds without boxing.
type Frame interface{ RunFrame(*Task) }

type funcFrame func(*Task)

func (f funcFrame) RunFrame(t *Task) { f(t) }

// futFrame is a future routine: its value is staged in the future
// until finish publishes it.
type futFrame func(*Task) any

func (f futFrame) RunFrame(t *Task) { t.fut.result = f(t) }

// newNode returns a gated task context that will run body: a recycled
// one off the free list of w, the worker whose token the caller holds
// (nil outside the runtime), or off the shared one, otherwise a fresh
// goroutine parked on its first worker token. Callers may further
// configure the returned context (fut/inflightRoot/cancel) before
// publishing it to the scheduler; the field writes happen-before the
// task body via the resume-channel send.
func (rt *Runtime) newNode(w *worker, level int, parent *Task, body Frame) *node {
	n := rt.takeFree(w)
	if n == nil {
		n = &node{resume: make(chan *worker, 1)}
		n.t = &Task{rt: rt, n: n}
		go n.t.loop()
	}
	t := n.t
	t.level, t.parent, t.body = level, parent, body
	if parent != nil {
		t.cancel = parent.cancel
	}
	return n
}

// takeFree pops a recycled task context off w's list (the caller holds
// w's token, or w is nil), else off the shared one, else returns nil.
func (rt *Runtime) takeFree(w *worker) *node {
	if w != nil && w.nfree > 0 {
		w.nfree--
		n := w.free[w.nfree]
		w.free[w.nfree] = nil
		return n
	}
	select {
	case n := <-rt.free:
		return n
	default:
		return nil
	}
}

// putFree parks a finished task context on w's list (the caller holds
// w's token), spilling to the shared one; false means both are full
// and the context's goroutine should exit.
func (rt *Runtime) putFree(w *worker, n *node) bool {
	if w.nfree < len(w.free) {
		w.free[w.nfree] = n
		w.nfree++
		return true
	}
	select {
	case rt.free <- n:
		return true
	default:
		return false
	}
}

// loop is the task goroutine's life: receive a worker token, run the
// task body, finish — and, when the finished context was parked on a
// free list, loop back for the next task body instead of exiting. A
// nil token (posted by Runtime.Close while draining the free lists)
// terminates the goroutine.
func (t *Task) loop() {
	n := t.n
	for {
		w := <-n.resume
		if w == nil {
			return
		}
		if invariant.Enabled {
			// A recycled context must have been re-armed (newNode set a
			// body) before any worker resumes it; a bodiless resume means
			// a stale reference to a free-listed context survived
			// somewhere and its goroutine is about to run garbage.
			invariant.Checkf(t.body != nil,
				"sched: recycled task context resumed with no body (level %d)", t.level)
		}
		t.w = w
		t.runBody()
		if !t.finish() {
			return
		}
	}
}

// runBody executes the task function, absorbing the cancellation
// unwind: a cancelled task panics with the canceledUnwind sentinel at
// its next scheduling point, is recovered here, joins any outstanding
// spawned children (they share the fired cancel state and unwind just
// as promptly), and proceeds to the normal finish path with the
// cancellation cause attached. A task already cancelled before its
// first resume (deadline passed while queued) never runs its body at
// all — the "abandon doomed work" fast path.
func (t *Task) runBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(canceledUnwind); !ok {
				panic(r)
			}
			t.joinOutstanding()
			t.cause = t.cancel.Err()
		}
	}()
	if c := t.cancel; c != nil && c.fired.Load() {
		t.cause = c.Err()
		return
	}
	t.body.RunFrame(t)
	if c := t.cancel; c != nil && c.fired.Load() {
		// Fired during the body, but the task returned gracefully
		// anyway (a cooperative Err() check): the request missed its
		// deadline either way, so the cause rides along with the value.
		t.cause = c.Err()
	}
}

// Level returns the task's priority level (0 = highest).
func (t *Task) Level() int { return t.level }

// Runtime returns the owning runtime.
func (t *Task) Runtime() *Runtime { return t.rt }

// parkAfter carries out a yield directive on the current worker, which
// passes its token on, and parks until some worker resumes this task.
func (t *Task) parkAfter(m yieldMsg) {
	if invariant.Enabled {
		// Only the node holding the worker's token may act for it; a
		// mismatch means two task goroutines believe they own the same
		// worker — the gated-goroutine protocol's cardinal sin.
		t.w.tok.Check(t.n)
	}
	t.w.step(t.n, m)
	t.w = <-t.n.resume
}

// finish runs on the task goroutine after the task function returns:
// complete the future (waking waiter deques), perform join
// bookkeeping, recycle the context, and pass the worker's token on.
// It reports whether the context was parked on a free list (so loop
// keeps the goroutine alive).
func (t *Task) finish() bool {
	if t.joins.Load() != 0 {
		panic("sched: task returned with outstanding spawned children (missing Sync)")
	}
	// The body goes before the parent hears of the finish: a record the
	// parent parks (ParkFrame) or re-spawns after its sync is then
	// referenced by no child.
	t.body = nil

	rt := t.rt
	if t.inflightRoot {
		// Decrement before completion so that anyone woken by the
		// future (Wait returning) observes the drained count.
		rt.inflight.Add(-1)
	}
	// cause was snapshotted by runBody at body exit — deliberately not
	// re-read here, so a deadline firing after a successful return
	// cannot retroactively mark the completed result as failed.
	cause := t.cause
	if c := t.cancel; c != nil && t.cancelRoot {
		c.release()
	}
	if t.fut != nil {
		t.fut.completeWith(t.fut.result, cause)
	}

	var ready *node
	if p := t.parent; p != nil {
		v := p.joins.Add(-1)
		if invariant.Enabled {
			// The join counter can never go below zero children: v < 0 is
			// an unflagged underflow, and a low-32 value with the top bit
			// set is the wrapped remainder of a flagged one (syncBit-1
			// children is unreachable by 31 orders of magnitude).
			invariant.Checkf(v >= 0 && v&(syncBit-1) < 1<<31,
				"sched: join counter underflow (joins=%#x after child finish)", v)
		}
		if v == syncBit {
			// Count hit zero with the parent parked at sync: this
			// completion releases it. The parent cannot run until we
			// hand ready to the worker, so the flag reset is race-free.
			p.joins.Store(0)
			ready = p.n
		}
	}

	// Drop every reference the parked context would otherwise pin,
	// then park it on a free list *before* passing the token, while
	// this goroutine still owns the worker's list: the next spawner
	// (the parent about to be resumed; anyone, once the context has
	// spilled to the shared list) may pop and re-arm it immediately —
	// the capacity-1 resume channel buffers the new token until loop
	// comes around.
	w := t.w
	t.w = nil
	t.parent = nil
	t.fut = nil
	t.inflightRoot = false
	t.cancel = nil
	t.cancelRoot = false
	t.cause = nil
	recycled := rt.putFree(w, t.n)
	if invariant.Enabled {
		w.tok.Check(t.n)
	}
	w.step(t.n, yieldMsg{kind: yDone, ready: ready})
	return recycled
}

// maybeSwitch is the frequent priority check performed at every
// spawn, sync, fut-create, and get (Section 4: "an active worker
// checks this bitfield at every spawn, sync, fut-create, and get. If a
// worker realizes that it is working at a lower priority level than
// the highest level with available work, it abandons its active deque
// ... and moves itself to the higher level"). For the Adaptive
// variants the trigger is instead a changed quantum-boundary
// assignment.
func (t *Task) maybeSwitch() {
	if invariant.Enabled {
		perturb.At(perturb.Check)
	}
	t.checkCancel()
	t.w.clock.CountCheck()
	target, ok := t.rt.pol.checkSwitch(t.w, t.level)
	if !ok {
		return
	}
	d := t.w.active
	needsEnqueue := d.Abandon(t.n, !t.rt.cfg.DisableMuggingQueue)
	if invariant.Enabled {
		// Stretch the abandon-to-park window: the deque is already
		// resumable and discoverable, so a mugger may take it — and post
		// a fresh worker token — before this task even parks.
		perturb.At(perturb.Abandon)
	}
	t.w.clock.CountAbandon()
	t.rt.trace.Add(trace.Abandon, t.w.id, t.level)
	t.rt.pol.onAbandon(t.w, d, needsEnqueue)
	t.parkAfter(yieldMsg{kind: yAbandon, level: target})
	// Resumed by a mugger; t.w now points at the new worker, which
	// adopted this deque at t.level.
}

// Spawn forks fn to potentially run in parallel with the caller's
// continuation, at the caller's priority level. Semantics follow the
// paper: the parent's continuation frame is pushed on the bottom of
// the active deque (becoming stealable) and the worker proceeds with
// the child.
func (t *Task) Spawn(fn func(*Task)) { t.SpawnFrame(funcFrame(fn)) }

// SpawnFrame is Spawn for a body in record form (see Frame).
func (t *Task) SpawnFrame(f Frame) {
	t.maybeSwitch()
	t.w.clock.CountSpawn()
	child := t.rt.newNode(t.w, t.level, t, f)
	t.joins.Add(1)
	d := t.w.active
	needsEnqueue := d.PushBottom(t.n)
	if invariant.Enabled {
		// The continuation frame is stealable from here until parkAfter
		// posts the yield; a thief resuming it early races the park.
		perturb.At(perturb.Spawn)
	}
	t.rt.pol.onOwnerPush(t.w, d, needsEnqueue)
	t.parkAfter(yieldMsg{kind: ySpawn, child: child})
}

// Sync blocks until all children spawned by this task have returned.
// Futures created with FutCreate are not joined by Sync; use Get.
//
// A child that returned because the tree was cancelled left its work
// undone, so cancellation is checked again once the children are
// joined: the parent unwinds instead of running its continuation on
// partial results.
func (t *Task) Sync() {
	t.maybeSwitch()
	for {
		v := t.joins.Load()
		if v == 0 {
			t.checkCancel()
			return
		}
		if t.joins.CompareAndSwap(v, v|syncBit) {
			break
		}
	}
	if invariant.Enabled {
		// The syncBit is visible from here; the last child may release
		// the sync and re-arm this node before the park completes.
		perturb.At(perturb.Sync)
	}
	t.parkAfter(yieldMsg{kind: ySyncWait})
	t.checkCancel()
}

// FutCreate creates a future computing fn at the given priority level
// and returns its handle. At the caller's own level it behaves like
// spawn (continuation pushed, future routine runs next); at a
// different level a fresh deque holding the future routine is tossed
// to that level's pool (footnote 3 of the paper) and the caller
// continues immediately.
func (t *Task) FutCreate(level int, fn func(*Task) any) *Future {
	t.maybeSwitch()
	if level < 0 || level >= t.rt.cfg.Levels {
		panic(fmt.Sprintf("sched: FutCreate level %d out of range [0,%d)", level, t.rt.cfg.Levels))
	}
	f := t.rt.newFuture(t.w, int32(level))
	child := t.rt.newNode(t.w, level, nil, futFrame(fn))
	child.t.fut = f
	// Future routines inherit the creator's cancellation: a cancelled
	// request's helper futures are as doomed as the request itself.
	child.t.cancel = t.cancel
	if level == t.level {
		d := t.w.active
		needsEnqueue := d.PushBottom(t.n)
		t.rt.pol.onOwnerPush(t.w, d, needsEnqueue)
		t.parkAfter(yieldMsg{kind: ySpawn, child: child})
	} else {
		t.rt.submitNode(child, level)
	}
	return f
}

// Yield is a cooperative scheduling point: it runs the frequent
// priority check and lets other goroutines run. Long CPU-bound loops
// inside a task should call it periodically, mirroring how compiled
// Cilk code reaches scheduling points at every spawn. (The Gosched
// matters on hosts with fewer CPUs than workers: without it a
// CPU-bound task can monopolize the processor between Go's async
// preemption ticks, starving completion observers.)
func (t *Task) Yield() {
	t.maybeSwitch()
	runtime.Gosched()
}

// LoopPoint is the scheduling point a data-parallel loop reaches
// between two sequential chunks, and the loop's demand probe: it
// reports whether the loop should feed a thief, i.e. whether the active
// deque holds no frame one could take (deque.HasFrames; a runtime with
// one worker has no thieves, so the answer there is always no).
//
// A loop that does not spawn never parks, so its worker never enters
// the Go scheduler and every plain goroutine in the process (timers,
// accept loops, I/O handlers, request generators) waits for async
// preemption; yield asks for a runtime.Gosched to stand in for the
// missing parks. The order is Gosched first, bitfield check second —
// the reverse of Yield — because a goroutine that gets the processor
// inside the Gosched window may submit exactly the work the check is
// there to notice, and checking first would leave it waiting a whole
// further chunk.
func (t *Task) LoopPoint(yield bool) (feed bool) {
	if yield {
		runtime.Gosched()
	}
	t.maybeSwitch()
	return len(t.rt.workers) > 1 && !t.w.active.HasFrames()
}
