package sched

import (
	"time"

	"icilk/internal/invariant"
	"icilk/internal/trace"
)

// promptPolicy is the Prompt I-Cilk scheduler (Section 4 of the
// paper): centralized two-queue pools per level, frequent bitfield
// checking for promptness, lazy removal of empty deques, and
// condition-variable sleep when no level has work.
type promptPolicy struct {
	rt   *Runtime
	pool *centralPool
}

func newPromptPolicy(rt *Runtime) *promptPolicy {
	return &promptPolicy{rt: rt, pool: newCentralPool(rt)}
}

func (p *promptPolicy) start() {}
func (p *promptPolicy) stop()  {}

// findWork: always target the highest-priority level with work (the
// bitfield check before every steal); sleep when the bitfield is
// all-zero.
func (p *promptPolicy) findWork(w *worker) (*node, *dq) {
	rt := p.rt
	// woke: the worker has just left the sleep gate and not yet tried
	// to take work; if that try finds none, the wake was futile.
	woke := false
	for {
		if rt.stopped.Load() {
			return nil, nil
		}
		level, ok := rt.bits.Highest()
		if !ok {
			// Nothing anywhere: sleep until some worker performs the
			// zero→non-zero transition. The sleep/wake transition cost
			// (time awake inside the gate) counts as waste, per the
			// paper's accounting; the blocked time itself consumes no
			// core and is not charged.
			if woke {
				// Out of the gate, but the field was zero again before
				// this worker could pop.
				w.clock.CountFutileWakes(1)
			}
			rt.trace.Add(trace.Sleep, w.id, -1)
			awake, wakes, alive := rt.bits.WaitNonZero(w.clock.CountSleep)
			w.clock.AddWaste(awake)
			rt.trace.Add(trace.Wake, w.id, -1)
			if !alive {
				return nil, nil
			}
			// Every wake but the last slept again inside the gate.
			if woke = wakes > 0; wakes > 1 {
				w.clock.CountFutileWakes(wakes - 1)
			}
			continue
		}
		w.level.Store(int32(level))
		t0 := time.Now()
		if frame, d, ok := p.pool.pop(w, level); ok {
			w.clock.AddOverhead(time.Since(t0))
			return frame, d
		}
		if woke {
			w.clock.CountFutileWakes(1)
			woke = false
		}
		// The pool was empty: clear the bit with the double-check
		// protocol so a racing producer is not left undiscoverable.
		rt.bits.DoubleCheckClear(level, func() bool { return p.pool.empty(level) })
		if invariant.Enabled {
			// Stability after the double-check: the bit may be clear with
			// the pool momentarily non-empty (a producer between its
			// insert and its Set), but the state "bit clear AND pool
			// non-empty" must not persist — every enqueue Sets after
			// inserting, so the window self-heals. A permanent
			// violation is a lost level: queued work no thief will ever
			// look for.
			invariant.Eventually(func() bool {
				return rt.bits.IsSet(level) || p.pool.empty(level)
			}, "prompt: level %d bit stably clear with non-empty pool after double-check; tickets %s",
				level, p.pool.debug(level))
		}
		w.clock.CountFailedSteal()
		w.clock.AddWaste(time.Since(t0))
	}
}

func (p *promptPolicy) onOwnerPush(w *worker, d *dq, needsEnqueue bool) {
	// "When a worker pushes something onto its active deque (via spawn
	// or fut-create), it checks and pushes its active deque back onto
	// the queue if necessary." (This is the deliberate violation of
	// the work-first principle the paper defends.)
	if needsEnqueue {
		p.pool.enqueue(d, false)
	} else {
		// Already discoverable; still make sure the bit reflects the
		// new work in case a thief's double-check cleared it just now.
		p.rt.bits.Set(d.Level())
	}
}

func (p *promptPolicy) onAdopt(w *worker, d *dq) {
	// A fresh empty active deque has nothing stealable; it enters the
	// pool lazily on the first push.
}

func (p *promptPolicy) onSuspend(w *worker, d *dq) {
	// Lazy design: a suspended deque stays wherever it is. If it has
	// stealable frames it is already in the queue (it was enqueued
	// when those frames were pushed); if it is empty it will be
	// dropped by the thief that eventually pops it.
}

func (p *promptPolicy) onResumable(d *dq, needsEnqueue bool) {
	// "Whenever the system resumes a deque, it checks to see if this
	// deque is already on the queue and pushes it back if it is not."
	if needsEnqueue {
		p.pool.enqueue(d, false)
	} else {
		p.rt.bits.Set(d.Level())
	}
}

func (p *promptPolicy) onAbandon(w *worker, d *dq, needsEnqueue bool) {
	if needsEnqueue {
		p.pool.enqueue(d, !p.rt.cfg.DisableMuggingQueue)
	} else {
		p.rt.bits.Set(d.Level())
	}
}

func (p *promptPolicy) onDequeDead(w *worker, d *dq) {
	// Lazy removal: a dead deque still referenced by a queue is
	// dropped when popped.
}

// checkSwitch is the frequent promptness check: abandon when any
// strictly higher-priority level has work.
func (p *promptPolicy) checkSwitch(w *worker, level int) (int, bool) {
	return p.rt.bits.HigherThan(level)
}

func (p *promptPolicy) poolDepths(level int) (regular, mugging int) {
	return p.pool.depths(level)
}
