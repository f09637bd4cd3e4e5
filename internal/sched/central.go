package sched

import (
	"fmt"

	"icilk/internal/deque"
	"icilk/internal/fifoq"
	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
	"icilk/internal/trace"
)

// centralPool is the paper's centralized per-priority-level deque
// pool: for each level, a regular FIFO queue plus a mugging queue
// holding only abandoned (immediately-resumable) deques. Both queues
// of every level share the runtime's epoch collector.
//
// Thieves check the mugging queue first so abandoned deques are not
// "de-aged" behind deques that became resumable after them (Section
// 4, "Support for Aging").
//
// The pool is shared by the Prompt policy and by AdaptiveGreedy's
// bottom level.
type centralPool struct {
	rt     *Runtime
	levels []struct{ regular, mugging *fifoq.Queue[*dq] }
}

func newCentralPool(rt *Runtime) *centralPool {
	p := &centralPool{rt: rt, levels: make([]struct{ regular, mugging *fifoq.Queue[*dq] }, rt.cfg.Levels)}
	for i := range p.levels {
		p.levels[i].regular = fifoq.New[*dq](rt.col)
		p.levels[i].mugging = fifoq.New[*dq](rt.col)
	}
	return p
}

// enqueue pushes d onto its level's queue (mugging when mug is true)
// and sets the level's bitfield bit — "a worker, when enqueuing a
// deque into a pool, always sets the corresponding bit". The bit is
// set after the insert, and only cleared through the DoubleCheckClear
// re-probe, so it never under-reports. The caller must have set the
// deque's queue-presence flag (the deque methods' needsEnqueue
// contract does this atomically with the state change); a deque is in
// at most one queue at a time.
func (p *centralPool) enqueue(d *dq, mug bool) {
	h := p.rt.handle()
	lvl := d.Level()
	lp := &p.levels[lvl]
	if mug {
		lp.mugging.Enqueue(h, d)
	} else {
		lp.regular.Enqueue(h, d)
	}
	p.rt.release(h)
	if invariant.Enabled {
		// THE window of the bitfield protocol: the deque is in the
		// queue but the level bit is not yet set. A thief's
		// DoubleCheckClear racing into this gap must still leave the
		// level discoverable — its empty() re-probe sees the queued
		// deque, or our Set below lands after its Clear.
		perturb.At(perturb.Enqueue)
	}
	p.rt.bits.Set(lvl)
	if invariant.Enabled {
		// Work is now both queued and flagged; any sleeper that persists
		// past this point missed a wake-up.
		p.rt.bits.CheckNoSleeperStranded()
	}
	p.rt.trace.Add(trace.Enqueue, -1, lvl)
}

// depths returns the instantaneous regular and mugging queue depths
// at level (size estimates; see fifoq.Len).
func (p *centralPool) depths(level int) (regular, mugging int) {
	return p.levels[level].regular.Len(), p.levels[level].mugging.Len()
}

// debug renders the level's (head,tail) tickets for invariant-failure
// messages.
func (p *centralPool) debug(level int) string {
	rh, rt := p.levels[level].regular.Tickets()
	mh, mt := p.levels[level].mugging.Tickets()
	return fmt.Sprintf("r=%d/%d m=%d/%d", rh, rt, mh, mt)
}

// empty reports whether the level's pool (both queues) appears empty.
// This is the DoubleCheckClear re-probe, so it must never
// under-report: each queue's Len is a ticket-difference estimate
// that can transiently over-report but never misses a published
// element. A deque held in a thief's hands (dequeued, not yet
// re-enqueued) is invisible to it, but that deque is owned, not lost,
// and its re-enqueue Sets the bit again after the insert, so "bit
// clear AND pool non-empty" cannot persist (the findWork Eventually
// assertion guards it).
func (p *centralPool) empty(level int) bool {
	return p.levels[level].mugging.Empty() && p.levels[level].regular.Empty()
}

// pop runs the paper's thief protocol at the given level for worker
// w: pop a deque off the head (mugging queue first); mug it if
// resumable, steal its top frame if it has one, drop it if empty
// (lazy removal); push it back on the regular tail if it still holds
// stealable work. On a steal the frame is adopted onto a fresh active
// deque for the thief.
func (p *centralPool) pop(w *worker, level int) (*node, *dq, bool) {
	lp := &p.levels[level]
	for {
		if invariant.Enabled {
			perturb.At(perturb.Steal)
		}
		fromMugging := true
		d, ok := lp.mugging.Dequeue(w.part)
		if !ok {
			fromMugging = false
			d, ok = lp.regular.Dequeue(w.part)
		}
		if !ok {
			return nil, nil, false
		}
		res, frame, pushBack := d.TakeForThief(fromMugging)
		switch res {
		case deque.PopDiscard:
			// Empty or dead deque that lingered in the queue: drop it
			// and keep looking (multiple queue accesses per steal are
			// the accepted price of the simple queue design). If the
			// drop cleared the deque's last queue reference, recycle
			// it.
			p.rt.trace.Add(trace.Drop, w.id, level)
			p.rt.freeDeque(d)
			continue
		case deque.PopMug:
			if pushBack {
				p.enqueue(d, false)
			}
			if invariant.Enabled {
				// The deque is claimed (Active, owned by w) but its parked
				// task has not been resumed; the abandoning worker may
				// still be between its enqueue and its park.
				perturb.At(perturb.Mug)
			}
			w.clock.CountMug()
			p.rt.trace.Add(trace.Mug, w.id, level)
			return frame.(*node), d, true
		case deque.PopSteal:
			if pushBack {
				p.enqueue(d, false)
			}
			w.clock.CountSteal()
			p.rt.trace.Add(trace.Steal, w.id, level)
			return frame.(*node), p.rt.newDeque(level), true
		}
	}
}
