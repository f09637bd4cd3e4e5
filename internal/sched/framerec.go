package sched

import "icilk/internal/invariant"

// Fork records: the heap half of a fork, recycled with the context.
//
// A fork site that spawns a record (a Frame holding the child's inputs
// and the slot its result comes back in) needs that record from the
// spawn to the sync and never again. Compiled Cilk keeps it in the
// parent's stack frame; here the parent's frame is a goroutine context
// (node), which finish already parks on a free list for the next task
// body — so the context carries a small stack of spent records along,
// and the next fork on it takes one instead of allocating.
//
// The records belong to the context, not to a task or a worker: a Task
// and the called frames above it share one (c.n), and only the
// goroutine running on the context touches the list, so there is no
// lock, atomic or channel here — the same ownership rule as
// worker.free.

// frameRecCap bounds the records one context parks: the forks
// outstanding at once on one context are a recursion's depth (fib's
// three, a sort's three, a Reduce's log of its range), and a loop that
// was stolen from more often than this parks only its first few.
const frameRecCap = 12

// TakeFrame returns a zero *R for a fork on t's context: a parked one
// if the context holds any, else a new one. The search runs from the
// top over every parked record, not just the topmost: a context that
// serves two kinds of job in turn (a worker's free list is shared by
// every level it visits) would otherwise find the other kind's record
// on top each time and allocate on both.
func TakeFrame[R any](t *Task) *R {
	recs := t.n.recs
	for i := len(recs) - 1; i >= 0; i-- {
		if r, ok := recs[i].(*R); ok {
			last := len(recs) - 1
			recs[i] = recs[last]
			recs[last] = nil
			t.n.recs = recs[:last]
			return r
		}
	}
	return new(R)
}

// ParkFrame gives a record back to t's context once the fork it served
// is over: after the frame's own Sync returned, with the child's result
// already read out of it. The record is zeroed first, so a parked
// context pins nothing of the user's (the rule finish keeps for the
// Task itself), and is dropped to the GC when the context already
// holds frameRecCap.
//
// Only the normal path parks. A cancellation unwind leaves its records
// to the GC: the children may write them until the unwind has joined
// them, which happens below the fork site's frame.
func ParkFrame[R any](t *Task, r *R) {
	n := t.n
	if invariant.Enabled {
		invariant.Checkf(t.joins.Load() == 0,
			"sched: ParkFrame with %d children outstanding: a child may still write the record", t.joins.Load())
		for _, p := range n.recs {
			invariant.Checkf(p != any(r), "sched: ParkFrame of a record that is already parked")
		}
	}
	var zero R
	*r = zero
	if len(n.recs) == frameRecCap {
		return
	}
	if n.recs == nil {
		n.recs = make([]any, 0, frameRecCap) // one allocation, not append's four
	}
	n.recs = append(n.recs, r)
}
