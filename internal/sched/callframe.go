package sched

import "icilk/internal/invariant"

// Called frames: the "function call" half of Cilk's frame model.
//
// In compiled Cilk every function invocation gets its own frame, so a
// cilk_sync inside a *called* function joins only the children that
// function spawned. This runtime's Task is the frame — but a plain Go
// function call shares the caller's Task, so a nested Sync would CAS
// the caller's join counter and wait for right-sibling spawns of every
// enclosing divide-and-conquer level (the defect the data-parallel
// helpers used to have). Call restores the called-frame semantics: it
// runs fn in a fresh Task frame on the same goroutine, same worker,
// same deque node, same priority level — but with its own join
// counter, so Sync inside fn joins exactly the children fn spawned.
//
// A called frame is not a schedulable unit: it holds no goroutine and
// never appears in a deque. Parking (a failed Sync, an abandonment, an
// I/O wait) parks the shared node exactly as it would for the caller;
// the resume rewrites the frame's worker pointer and Call copies it
// back to the caller on return, so migration while inside the frame is
// transparent.

// Call runs fn inline in its own task frame: a scheduling point (the
// frequent priority check runs first), then fn(frame) on the calling
// goroutine, then — after fn returns — a check that fn joined
// everything it spawned. Spawn/Sync/FutCreate/Get on the frame behave
// exactly as on the caller's task, except that Sync's join scope is
// the frame's own spawns. The frame is only valid during fn; callers
// must not retain it.
//
// Call is the building block of the data-parallel helpers (For,
// Reduce) and of the job server's parallel pairs: each
// divide-and-conquer split runs its halves in separate frames so a
// nested sync can never serialize against an enclosing split's
// outstanding children.
func (t *Task) Call(fn func(*Task)) {
	t.maybeSwitch()
	c := t.rt.takeFrame(t.w)
	c.rt, c.w, c.n = t.rt, t.w, t.n
	c.level, c.parent, c.cancel = t.level, t, t.cancel
	defer func() {
		// Whatever worker the frame last resumed on is now the calling
		// goroutine's worker; the caller's stale pointer must follow.
		t.w = c.w
		r := recover()
		if r == nil {
			if c.joins.Load() != 0 {
				panic("sched: called frame returned with outstanding spawned children (missing Sync)")
			}
			c.releaseFrame()
			return
		}
		if _, ok := r.(canceledUnwind); ok {
			// Unwinding a cancelled tree through a called frame joins the
			// frame's outstanding children first (they share the fired
			// cancel state and unwind at their own next scheduling
			// points), mirroring what runBody does for the node's own
			// frame. Only then is the frame quiescent and recyclable.
			c.joinOutstanding()
			t.w = c.w
			c.releaseFrame()
		}
		// Non-sentinel panics propagate without recycling the frame:
		// outstanding children may still hold references to it.
		panic(r)
	}()
	fn(c)
}

// releaseFrame clears a quiescent called frame and parks it on the
// frame list of its worker (worker.frames, spilling to
// Runtime.frames), whose token the calling goroutine holds. A frame is
// only released once its join counter is provably quiescent (fn
// returned after a successful Sync, or the unwind path joined the
// stragglers), at which point no child references it. The cleared
// frame pins nothing, and its nil runtime, worker and node are its
// poison: any use of it faults.
func (c *Task) releaseFrame() {
	rt, w := c.rt, c.w
	c.rt, c.w, c.n = nil, nil, nil
	c.level, c.parent, c.cancel = 0, nil, nil
	rt.putFrame(w, c)
}

// takeFrame pops a called frame off w's list (the caller holds w's
// token, or w is nil), else off the shared one, else allocates one.
func (rt *Runtime) takeFrame(w *worker) *Task {
	var c *Task
	if w != nil && w.nframes > 0 {
		w.nframes--
		c = w.frames[w.nframes]
		w.frames[w.nframes] = nil
	} else {
		select {
		case c = <-rt.frames:
		default:
			return new(Task)
		}
	}
	if invariant.Enabled {
		invariant.Checkf(c.rt == nil && c.joins.Load() == 0,
			"sched: recycled called frame was touched after its release")
	}
	return c
}

// putFrame parks a released frame on w's list (the caller holds w's
// token), spilling to the shared one; a frame neither takes is left to
// the garbage collector.
func (rt *Runtime) putFrame(w *worker, c *Task) {
	if w.nframes < len(w.frames) {
		w.frames[w.nframes] = c
		w.nframes++
		return
	}
	select {
	case rt.frames <- c:
	default:
	}
}
