// Package deque implements the execution-context deque shared by all
// the schedulers in this repository (Prompt I-Cilk, Adaptive I-Cilk
// and its variants). The design follows proactive work stealing [42 in
// the paper], as summarized in the paper's Section 2:
//
//   - A worker has one ACTIVE deque; the frame it is currently running
//     is conceptually the deque's bottom and is not stored in the item
//     stack. spawn/fut-create push the parent's continuation frame on
//     the bottom; when a child returns the worker pops the bottom.
//   - Thieves steal the TOP (oldest) frame.
//   - A failed get SUSPENDS the whole deque, recording the blocked
//     frame; the deque may still hold stealable frames ("stealable
//     suspended deque").
//   - When the awaited future completes the deque becomes RESUMABLE; a
//     thief "mugs" the whole deque, adopting it and resuming the
//     recorded bottom frame.
//   - A worker that abandons its deque for higher-priority work leaves
//     it IMMEDIATELY RESUMABLE: resumable, but suspended by priority
//     preemption rather than by a blocked get (this distinction drives
//     the mugging-queue aging fix in Prompt I-Cilk).
//
// The deque is protected by a mutex. This matches the performance
// argument of the paper: with far more deques than workers, per-deque
// contention is negligible, and what matters is cheap insertion and
// removal into the *pools* of deques, not lock-freedom of a single
// deque.
package deque

import (
	"fmt"
	"sync"
	"sync/atomic"

	"icilk/internal/invariant"
)

// State enumerates the deque lifecycle states.
type State int32

const (
	// Active: owned by a worker that is executing the deque's bottom.
	Active State = iota
	// Suspended: no worker attached; the bottom frame is blocked on an
	// unresolved get. Items, if any, are stealable.
	Suspended
	// Resumable: the bottom frame is ready to run (the awaited future
	// completed, or the deque was abandoned for higher-priority work);
	// a thief may mug the whole deque.
	Resumable
	// Dead: empty and finished; pool pops discard it.
	Dead
	// Recycled: terminal sentinel set by TakeForRecycle when a caller
	// claims a Dead deque for the runtime's free list. Only Reset (on
	// the list's take path, newDeque) leaves this state.
	Recycled
)

// legalTransitions is the deque lifecycle's edge table, asserted on
// every state change in icilk_debug builds. The legal edges are
// exactly the protocol of the package doc:
//
//	Active    → Suspended  (Suspend: owner's failed get)
//	Active    → Resumable  (Abandon: priority preemption)
//	Active    → Dead       (MarkDeadIfDone: owner drained it)
//	Suspended → Resumable  (MarkResumable: awaited future completed)
//	Resumable → Active     (TakeForThief mug / TryMug: thief adoption)
//	Dead      → Recycled   (TakeForRecycle: single recycler's claim)
//	Recycled  → Active     (Reset: leaving the free list)
//
// Anything else — a double suspend, a resume of a dead deque, a second
// TakeForRecycle, a Reset of a live deque — is a protocol violation.
var legalTransitions = [5][5]bool{
	Active:    {Suspended: true, Resumable: true, Dead: true},
	Suspended: {Resumable: true},
	Resumable: {Active: true},
	Dead:      {Recycled: true},
	Recycled:  {Active: true},
}

// setState performs a checked state transition; callers hold d.mu.
func (d *Deque) setState(to State) {
	if invariant.Enabled {
		invariant.Checkf(legalTransitions[d.state][to],
			"deque(level %d): illegal transition %v -> %v", d.level.Load(), d.state, to)
	}
	d.state = to
}

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Suspended:
		return "suspended"
	case Resumable:
		return "resumable"
	case Dead:
		return "dead"
	case Recycled:
		return "recycled"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Deque is an execution-context deque holding opaque frames (the
// scheduler stores its node type; the payload is type-erased to keep
// the package free of cross-package generic instantiation cycles).
// All methods are safe for concurrent use.
type Deque struct {
	mu    sync.Mutex
	items []any // index 0 = top (oldest, steal end); end = bottom
	state State
	// level is atomic (not mu-guarded) because hot paths read it
	// lock-free and Reset re-levels recycled deques; a stale read can
	// only mis-target advisory signals (bitfield set, trace), which
	// the double-check protocol already tolerates.
	level atomic.Int32
	// hasFrames mirrors len(items) > 0, stored under mu whenever that
	// flips, so the owner can ask "is there anything here for a thief?"
	// without taking the lock (HasFrames). A stale answer costs the
	// asking loop one chunk of delay or one surplus spawn, never
	// correctness.
	hasFrames  atomic.Bool
	blocked    any // valid iff hasBlocked
	hasBlocked bool
	// immediately distinguishes an abandoned (immediately resumable)
	// deque from one resumed by future completion; it is advisory
	// information for pool policies.
	immediately bool

	// inRegular / inMugging track presence in the centralized pool
	// queues (Prompt I-Cilk) so pushers can honor "push it back onto
	// the queue if it is not already in the queue". Guarded by mu.
	inRegular bool
	inMugging bool

	// live tracks whether this deque currently counts as "non-empty"
	// for the runtime's per-level statistics (Figure 2); onLive is
	// fired with +1/-1 on transitions. Guarded by mu.
	live   bool
	onLive func(level int, delta int)
}

// New returns an empty Active deque at the given priority level.
// onLive, if non-nil, receives +1/-1 whenever the deque transitions
// between empty and non-empty (items or a resumable bottom present).
func New(level int, onLive func(level, delta int)) *Deque {
	d := &Deque{state: Active, onLive: onLive}
	d.level.Store(int32(level))
	return d
}

// Level returns the deque's priority level (fixed for the deque's
// lifetime; re-leveled only by Reset when recycled).
func (d *Deque) Level() int { return int(d.level.Load()) }

// updateLive recomputes liveness and the lock-free HasFrames mirror
// after a change to items or state; callers hold mu.
func (d *Deque) updateLive() {
	if has := len(d.items) > 0; has != d.hasFrames.Load() {
		d.hasFrames.Store(has) // only the empty/non-empty flips pay the store
	}
	nowLive := len(d.items) > 0 || (d.hasBlocked && d.state == Resumable)
	if nowLive != d.live {
		d.live = nowLive
		if d.onLive != nil {
			delta := -1
			if nowLive {
				delta = 1
			}
			d.onLive(int(d.level.Load()), delta)
		}
	}
}

// PushBottom pushes a continuation frame on the bottom (owner side,
// at spawn/fut-create). It reports whether the deque is now absent
// from both pool queues (so the caller must enqueue it to keep all
// non-empty deques discoverable) and marks it as present in the
// regular queue if so.
func (d *Deque) PushBottom(x any) (needsEnqueue bool) {
	d.mu.Lock()
	if invariant.Enabled {
		// Only the owner pushes, and an owner's deque is Active: a push
		// on any other state means a worker kept using a deque it had
		// suspended, abandoned, or recycled.
		invariant.Checkf(d.state == Active,
			"deque(level %d): PushBottom on %v deque", d.level.Load(), d.state)
	}
	d.items = append(d.items, x)
	d.updateLive()
	needsEnqueue = !d.inRegular && !d.inMugging
	if needsEnqueue {
		d.inRegular = true
	}
	d.mu.Unlock()
	return needsEnqueue
}

// PopBottom removes and returns the newest frame (owner side, when a
// child returns). ok is false if the deque is empty.
func (d *Deque) PopBottom() (x any, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if invariant.Enabled {
		invariant.Checkf(d.state == Active,
			"deque(level %d): PopBottom on %v deque", d.level.Load(), d.state)
	}
	n := len(d.items)
	if n == 0 {
		return nil, false
	}
	x = d.items[n-1]
	d.items[n-1] = nil
	d.items = d.items[:n-1]
	d.updateLive()
	return x, true
}

// StealTop removes and returns the oldest frame (thief side). ok is
// false if there is nothing to steal. remaining reports how many
// frames are left, letting the thief decide whether to push the deque
// back onto the pool queue.
func (d *Deque) StealTop() (x any, remaining int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return nil, 0, false
	}
	x = d.takeTop()
	return x, len(d.items), true
}

// takeTop removes and returns the oldest frame; callers hold mu and
// have checked that there is one. The rest shift down a slot (deques
// are shallow, so that is a few words): items[1:] would give the front
// of the array away for good and a deque that is stolen from would
// keep regrowing it. The vacated slot is nilled so it pins no task.
func (d *Deque) takeTop() any {
	x := d.items[0]
	n := copy(d.items, d.items[1:])
	d.items[n] = nil
	d.items = d.items[:n]
	d.updateLive()
	return x
}

// Len returns the current number of stored frames (excluding any
// blocked bottom frame).
func (d *Deque) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}

// HasFrames reports, without taking the lock, whether the deque holds
// a frame a thief could steal. It is the owner-side demand probe of the
// data-parallel loops: the owner is the only pusher, so "false" can
// only be stale by the owner's own program order (it is not), and
// "true" goes stale only when a thief has just taken the last frame —
// the loop then feeds the next thief one chunk later.
func (d *Deque) HasFrames() bool { return d.hasFrames.Load() }

// State returns the current lifecycle state.
func (d *Deque) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Suspend transitions Active→Suspended, recording the blocked bottom
// frame (owner side, at a failed get). It reports whether the deque
// still holds stealable frames.
func (d *Deque) Suspend(blocked any) (stealable bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Active {
		panic("deque: Suspend on " + d.state.String() + " deque")
	}
	d.setState(Suspended)
	d.blocked = blocked
	d.hasBlocked = true
	d.immediately = false
	d.updateLive()
	return len(d.items) > 0
}

// Abandon transitions Active→Resumable with the given ready bottom
// frame: the "immediately resumable" case where the owner leaves for
// higher-priority work. It reports whether the deque is absent from
// both pool queues (caller must enqueue it) and, if so, marks it as
// present in the mugging queue when toMugging is true (Prompt
// I-Cilk's default) or the regular queue otherwise (the
// DisableMuggingQueue ablation, which de-ages abandoned deques).
func (d *Deque) Abandon(ready any, toMugging bool) (needsEnqueue bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Active {
		panic("deque: Abandon on " + d.state.String() + " deque")
	}
	d.setState(Resumable)
	d.blocked = ready
	d.hasBlocked = true
	d.immediately = true
	d.updateLive()
	needsEnqueue = !d.inRegular && !d.inMugging
	if needsEnqueue {
		if toMugging {
			d.inMugging = true
		} else {
			d.inRegular = true
		}
	}
	return needsEnqueue
}

// MarkResumable transitions Suspended→Resumable (future completed).
// It reports whether the deque is absent from both pool queues
// (caller must enqueue it to the regular queue) and, if so, marks it
// as present there.
func (d *Deque) MarkResumable() (needsEnqueue bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Suspended {
		panic("deque: MarkResumable on " + d.state.String() + " deque")
	}
	d.setState(Resumable)
	d.immediately = false
	d.updateLive()
	needsEnqueue = !d.inRegular && !d.inMugging
	if needsEnqueue {
		d.inRegular = true
	}
	return needsEnqueue
}

// Immediately reports whether the deque's resumability came from
// abandonment rather than future completion.
func (d *Deque) Immediately() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.immediately
}

// PopResult describes what a pool pop found in a deque.
type PopResult int

const (
	// PopDiscard: the deque had nothing (empty active/suspended or
	// dead); the thief drops it and does not push it back — the
	// paper's lazy empty-deque removal.
	PopDiscard PopResult = iota
	// PopMug: the deque was resumable; the thief adopted the whole
	// deque (now Active) and should resume the returned frame.
	PopMug
	// PopSteal: the thief took the top frame of a suspended or active
	// deque; pushBack reports whether stealable frames remain.
	PopSteal
)

// TakeForThief implements the thief-side claim a pool pop performs,
// atomically with respect to the deque's state:
//
//   - Resumable → mug: state becomes Active, the ready bottom frame is
//     returned, and the deque (now the thief's active deque) reports
//     via pushBack whether it still holds stealable frames.
//   - Suspended or Active with frames → steal the top frame.
//   - otherwise → discard.
//
// fromMugging tells the deque which pool-queue presence flag to clear
// (the pop removed it from that queue). pushBack=true means the deque
// still holds stealable work and the caller must re-enqueue it on the
// regular queue (the flag is set here, atomically with the decision).
func (d *Deque) TakeForThief(fromMugging bool) (res PopResult, frame any, pushBack bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if fromMugging {
		d.inMugging = false
	} else {
		d.inRegular = false
	}
	switch {
	case d.state == Resumable:
		frame = d.blocked
		d.blocked = nil
		d.hasBlocked = false
		d.setState(Active)
		d.immediately = false
		d.updateLive()
		if len(d.items) > 0 && !d.inRegular && !d.inMugging {
			d.inRegular = true
			return PopMug, frame, true
		}
		return PopMug, frame, false
	case len(d.items) > 0: // Suspended-stealable or Active-with-frames
		frame = d.takeTop()
		if len(d.items) > 0 && !d.inRegular && !d.inMugging {
			d.inRegular = true
			return PopSteal, frame, true
		}
		return PopSteal, frame, false
	default:
		return PopDiscard, nil, false
	}
}

// TryStealTop is the randomized-stealing entry point used by the
// Adaptive policies: it steals the top frame if the deque is Active or
// Suspended with frames, without touching pool-presence flags.
func (d *Deque) TryStealTop() (frame any, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return nil, false
	}
	return d.takeTop(), true
}

// TryMug attempts to claim a Resumable deque (Adaptive policies).
func (d *Deque) TryMug() (frame any, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Resumable {
		return nil, false
	}
	frame = d.blocked
	d.blocked = nil
	d.hasBlocked = false
	d.setState(Active)
	d.immediately = false
	d.updateLive()
	return frame, true
}

// MarkDeadIfDone transitions an empty Active deque to Dead (owner
// side, after the running bottom finished with nothing left). Returns
// false if frames remain (a thief may still steal them — the deque
// stays Active but ownerless is impossible here: the owner only calls
// this when it observed emptiness; a concurrent thief can only have
// *removed* frames).
func (d *Deque) MarkDeadIfDone() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Active {
		panic("deque: MarkDeadIfDone on " + d.state.String() + " deque")
	}
	if len(d.items) > 0 {
		return false
	}
	d.setState(Dead)
	d.updateLive()
	return true
}

// Stealable reports whether a thief could currently get anything from
// this deque (frames to steal or a resumable bottom to mug).
func (d *Deque) Stealable() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items) > 0 || d.state == Resumable
}

// InPool reports queue-presence flags (test hook).
func (d *Deque) InPool() (regular, mugging bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inRegular, d.inMugging
}

// TakeForRecycle claims the deque for reuse: when the deque is Dead
// and absent from both pool queues it atomically transitions to the
// terminal Recycled state and returns true; otherwise it returns
// false and leaves the deque untouched. Under the centralized-pool
// protocol every live external reference is covered by a presence
// flag (a deque handed out by a queue pop has its flag cleared only
// inside TakeForThief, atomically with the thief's claim), so Dead +
// both flags clear means no other goroutine can reach this deque
// again — except a racing recycler: the owner's death path and a
// thief's lazy-removal drop can both observe that condition for the
// same deque. The Dead→Recycled transition is the tie-breaker: it
// happens under mu, so exactly one caller wins the claim and any
// later caller sees Recycled and backs off, keeping one deque from
// entering the free list twice.
func (d *Deque) TakeForRecycle() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Dead || d.inRegular || d.inMugging {
		return false
	}
	d.setState(Recycled)
	return true
}

// Reset re-initializes a recycled deque as an empty Active deque at
// the given level, retaining the item slice's capacity so steady-state
// pushes stay allocation-free. The caller must own the deque
// exclusively (TakeForRecycle returned true and the deque was taken
// off the runtime's free list).
func (d *Deque) Reset(level int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Recycled {
		panic("deque: Reset on " + d.state.String() + " deque")
	}
	d.setState(Active)
	d.level.Store(int32(level))
	d.items = d.items[:0]
	d.blocked = nil
	d.hasBlocked = false
	d.immediately = false
}
