// Package epoch implements epoch-based memory reclamation (EBR) in the
// style of Fraser [15 in the paper], which the paper's deque-pool queue
// uses "to ensure that no workers are still referencing the old arrays
// before recycling them".
//
// Go's garbage collector already guarantees that a segment cannot be
// freed while referenced, so here EBR is not about safety of freeing
// but about *recycling*: a retired queue segment may only be returned
// to a free pool (and thus handed to another producer, who will
// overwrite it) once no reader can still be traversing it.
//
//   - Each thread (worker) registers a Participant. Around every
//     access to the shared structure it Pins the participant, which
//     publishes the global epoch it observed; Unpin clears it.
//   - Retired objects are tagged with the epoch at retirement.
//   - The global epoch can advance from e to e+1 only when every
//     pinned participant has observed e. Objects retired in epoch e
//     are safe to recycle once the global epoch reaches e+2, because
//     any thread still inside the structure must have pinned at e or
//     later and thus cannot hold a reference from before e.
//
// Retirements sit on one list in epoch order. The epoch is advanced,
// and the list's safe prefix taken off, under the lock that Retire
// appends under, so a retirement's tag and its place in the list always
// agree no matter where a collector is preempted.
package epoch

import (
	"sync"
	"sync/atomic"

	"icilk/internal/invariant"
)

// status bit layout for Participant.state: bit 0 is the "pinned" flag,
// the remaining bits hold the epoch observed at pin time.
const pinnedBit = 1

// Collector coordinates a set of participants and a retirement list.
type Collector struct {
	global atomic.Uint64 // written only under mu

	mu           sync.Mutex
	participants []*Participant
	retired      []retirement // non-decreasing epoch
}

type retirement struct {
	epoch uint64
	fn    func()
}

// NewCollector returns an empty collector at epoch 0.
func NewCollector() *Collector {
	return &Collector{}
}

// Register adds a participant for one thread/worker. Participants are
// never unregistered (workers live for the runtime's lifetime), and
// every Collect walks all of them, so callers keep and reuse the ones
// they have; a permanently unpinned participant does not block epoch
// advancement.
func (c *Collector) Register() *Participant {
	p := &Participant{c: c}
	c.mu.Lock()
	c.participants = append(c.participants, p)
	c.mu.Unlock()
	return p
}

// Participants returns how many participants have been registered
// (test/diagnostic hook).
func (c *Collector) Participants() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.participants)
}

// Participant is one thread's handle into the collector. Pin/Unpin are
// cheap (one atomic store each) and must bracket every traversal of
// the protected structure. A Participant must not be shared between
// goroutines.
type Participant struct {
	c     *Collector
	state atomic.Uint64
	// pinCount counts nested pins so that helper code can pin
	// without tracking whether a caller already did.
	pinCount int
}

// Pin publishes that this participant is inside the protected
// structure at the current global epoch. Nested pins are counted.
func (p *Participant) Pin() {
	p.pinCount++
	if p.pinCount > 1 {
		return
	}
	e := p.c.global.Load()
	p.state.Store(e<<1 | pinnedBit)
}

// Unpin marks the participant as outside the structure.
func (p *Participant) Unpin() {
	if p.pinCount == 0 {
		panic("epoch: Unpin without Pin")
	}
	p.pinCount--
	if p.pinCount == 0 {
		p.state.Store(0)
	}
}

// Retire schedules fn to run (typically recycling an object into a
// free pool) once no participant can still reference the object. The
// caller should be pinned while retiring, which guarantees the object
// was reachable no earlier than the pinned epoch.
func (c *Collector) Retire(fn func()) {
	c.mu.Lock()
	e := c.global.Load()
	if invariant.Enabled {
		// Collect takes the safe retirements off as a prefix, which is
		// all of them only while the list is in epoch order.
		if n := len(c.retired); n > 0 {
			invariant.Checkf(c.retired[n-1].epoch <= e,
				"epoch: retiring at epoch %d behind a retirement from epoch %d",
				e, c.retired[n-1].epoch)
		}
	}
	c.retired = append(c.retired, retirement{e, fn})
	c.mu.Unlock()
}

// Collect attempts to advance the global epoch and runs the
// retirements that have become safe. It is called opportunistically
// (e.g. by a queue when it retires a segment). Returns the number of
// callbacks run.
func (c *Collector) Collect() int {
	c.mu.Lock()
	e := c.global.Load()
	if c.allObserved(e) {
		e++
		c.global.Store(e)
	}
	// Callbacks run outside the lock, a stack-sized batch at a time;
	// once off the list they are safe to run however late.
	var batch [8]func()
	ran := 0
	for {
		n := 0
		for n < len(batch) && n < len(c.retired) && c.retired[n].epoch+2 <= e {
			batch[n] = c.retired[n].fn
			n++
		}
		rest := copy(c.retired, c.retired[n:])
		clear(c.retired[rest:])
		c.retired = c.retired[:rest]
		c.mu.Unlock()
		for _, fn := range batch[:n] {
			fn()
		}
		ran += n
		if n < len(batch) {
			return ran
		}
		c.mu.Lock()
	}
}

// allObserved reports whether every pinned participant pinned at epoch
// e, the condition for advancing past it. mu must be held.
func (c *Collector) allObserved(e uint64) bool {
	for _, p := range c.participants {
		if s := p.state.Load(); s&pinnedBit != 0 && s>>1 != e {
			return false
		}
	}
	return true
}

// Epoch returns the current global epoch (for tests and diagnostics).
func (c *Collector) Epoch() uint64 { return c.global.Load() }
