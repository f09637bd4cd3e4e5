// Package fifoq implements the concurrent non-blocking FIFO queue that
// Prompt I-Cilk uses as its centralized per-priority deque pool
// (Section 4 of the paper):
//
//	"this deque pool is implemented using an efficient concurrent
//	 non-blocking FIFO queue. The queue utilizes fetch-and-add to
//	 implement fast insert (at the tail) and removal (from the head).
//	 It is organized as an array of arrays to allow for concurrent
//	 accesses while resizing. It uses the standard epoch-based
//	 reclamation technique to ensure that no workers are still
//	 referencing the old arrays before recycling them."
//
// The implementation follows the fetch-and-add ticket design of
// infinite-array queues (in the lineage of LCRQ): enqueuers claim a
// ticket with FAA on the tail counter and publish their element into
// the addressed cell; dequeuers claim tickets with FAA on the head
// counter and either consume the cell or, if they overran the tail,
// poison it so the enqueue that later lands there retries. The
// "infinite array" is a singly linked list of fixed-size segments: a
// ticket's segment is reached by following next pointers from a hint
// (headSeg for dequeuers, tailSeg for enqueuers) and a missing
// successor is linked with one CAS, so the queue grows without a lock
// and without copying. The paper's outer array finds a segment in O(1)
// and has to be freed by hand; here the walk is a hop at most outside a
// stall and the garbage collector frees whatever is dropped, which
// leaves epoch-based reclamation one job: the list's first segment,
// once fully consumed, is unlinked and handed to the collector, which
// returns it to the free pool only when no pinned worker can still be
// walking it.
package fifoq

import (
	"runtime"
	"sync"
	"sync/atomic"

	"icilk/internal/epoch"
	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
)

// SegSize is the number of cells per segment. Small enough that unit
// tests cross many segment boundaries, large enough that FAA-ticket
// traffic dominates segment management in benchmarks.
const SegSize = 64

// maxPooledSegments bounds the free pool; segments beyond it are left
// to the garbage collector.
const maxPooledSegments = 16

// cell states.
const (
	cellEmpty    = 0
	cellFull     = 1
	cellPoisoned = 2
)

type cell[T any] struct {
	state atomic.Uint32
	val   T
}

type segment[T any] struct {
	// id is the segment's index in ticket space (it holds tickets
	// id*SegSize … id*SegSize+SegSize-1). Written only while the
	// segment is unshared: before it is linked, or after its grace
	// period.
	id    uint64
	next  atomic.Pointer[segment[T]]
	cells [SegSize]cell[T]
	// consumed counts cells that have been taken or poisoned; when it
	// reaches SegSize the segment is dead and may be unlinked.
	consumed atomic.Uint32
	// recycle returns the segment to its queue's free pool. Bound once,
	// when the segment is first allocated, so retiring it allocates
	// nothing.
	recycle func()
}

// Queue is a multi-producer multi-consumer FIFO of T values. All
// methods require the caller's epoch participant so a walk is
// protected against segment recycling.
type Queue[T any] struct {
	head atomic.Uint64 // next dequeue ticket
	tail atomic.Uint64 // next enqueue ticket

	// first is the oldest linked segment, the root of the list. It moves
	// only in unlinkDead, past dead segments, so it never passes a
	// ticket whose owner has yet to act. headSeg and tailSeg are the
	// dequeuers' and enqueuers' shortcuts to where the tickets currently
	// are: each is some linked segment at or after first, moved forward
	// by whoever walks past it. They are what keeps a walk to a hop when
	// one stalled ticket holder pins first far behind everyone else.
	first   atomic.Pointer[segment[T]]
	headSeg atomic.Pointer[segment[T]]
	tailSeg atomic.Pointer[segment[T]]

	col *epoch.Collector

	// segPool holds recycled segments. Mutex-protected; it is touched
	// once per SegSize operations at most. Made at its bound,
	// maxPooledSegments, so releaseSegment never grows it.
	poolMu   sync.Mutex
	segPool  []*segment[T]
	recycled atomic.Int64 // number of segments recycled (diagnostics)
}

// New creates an empty queue whose reclamation is coordinated by col.
// Multiple queues may share one collector (the scheduler shares one
// per runtime so a worker pin covers every queue it touches).
func New[T any](col *epoch.Collector) *Queue[T] {
	q := &Queue[T]{col: col, segPool: make([]*segment[T], 0, maxPooledSegments)}
	s := q.allocSegment(0)
	q.first.Store(s)
	q.headSeg.Store(s)
	q.tailSeg.Store(s)
	return q
}

// allocSegment takes a segment from the free pool or allocates one.
func (q *Queue[T]) allocSegment(id uint64) *segment[T] {
	q.poolMu.Lock()
	var s *segment[T]
	if n := len(q.segPool); n > 0 {
		s = q.segPool[n-1]
		q.segPool[n-1] = nil
		q.segPool = q.segPool[:n-1]
	}
	q.poolMu.Unlock()
	if s == nil {
		s = &segment[T]{}
		s.recycle = func() { q.recycleSegment(s) }
	} else {
		// Scrub recycled state. Safe: epoch reclamation guarantees no
		// concurrent reader of this segment remains.
		var zero T
		for i := range s.cells {
			s.cells[i].state.Store(cellEmpty)
			s.cells[i].val = zero
		}
		s.consumed.Store(0)
		s.next.Store(nil)
	}
	s.id = id
	return s
}

// releaseSegment puts an unshared segment into the free pool.
func (q *Queue[T]) releaseSegment(s *segment[T]) {
	q.poolMu.Lock()
	if len(q.segPool) < maxPooledSegments {
		q.segPool = append(q.segPool, s)
	}
	q.poolMu.Unlock()
}

// recycleSegment is the body of segment.recycle. Must only run as an
// epoch-retire callback.
func (q *Queue[T]) recycleSegment(s *segment[T]) {
	if invariant.Enabled {
		// A segment is retired only by unlinkDead, which requires
		// every cell consumed or poisoned; recycling one with live
		// cells would let allocSegment scrub values a pinned reader
		// still expects to find.
		invariant.Checkf(s.consumed.Load() == SegSize,
			"fifoq: recycling segment %d with only %d/%d cells consumed",
			s.id, s.consumed.Load(), SegSize)
	}
	q.releaseSegment(s)
	q.recycled.Add(1)
}

// Recycled reports how many segments have been recycled through the
// epoch mechanism (test/diagnostic hook).
func (q *Queue[T]) Recycled() int64 { return q.recycled.Load() }

// successor returns the segment after s, linking a new one if s is the
// last. The caller must be pinned.
func (q *Queue[T]) successor(s *segment[T]) *segment[T] {
	if n := s.next.Load(); n != nil {
		return n
	}
	n := q.allocSegment(s.id + 1)
	if s.next.CompareAndSwap(nil, n) {
		return n
	}
	q.releaseSegment(n) // lost the race; n was never shared
	return s.next.Load()
}

// findSegment returns the segment holding ticket, walking from hint
// (&q.headSeg for a dequeue ticket, &q.tailSeg for an enqueue ticket)
// and leaving the hint on the segment it found. The caller must be
// pinned. It returns nil when the segment has been unlinked, which is
// only possible if every cell in it was consumed or poisoned. The one
// reachable case is an enqueuer whose freshly claimed ticket was
// poisoned by an overrunning dequeuer before the enqueuer located the
// segment; nil tells Enqueue to retry with a new ticket. A dequeuer
// can never see nil: only the owner of a dequeue ticket consumes or
// poisons its cell, so its segment stays linked until it acts.
func (q *Queue[T]) findSegment(ticket uint64, hint *atomic.Pointer[segment[T]]) *segment[T] {
	id := ticket / SegSize
	start := hint.Load()
	if invariant.Enabled {
		// Stretch the hint-load → walk window: everything below must
		// tolerate start being unlinked, and successors being linked,
		// concurrently.
		perturb.At(perturb.Check)
	}
	s := start
	if s.id > id {
		// A faster goroutine moved the hint past this ticket's segment;
		// first cannot have passed it unless it is dead.
		if s = q.first.Load(); s.id > id {
			return nil
		}
	}
	for s.id < id {
		s = q.successor(s)
	}
	if s.id > start.id {
		// Forward only, and only while start is still the hint: start
		// is then still linked, so s — after it — is too, and a hint
		// never comes to rest on a retired segment.
		hint.CompareAndSwap(start, s)
	}
	return s
}

// unlinkDead drops fully consumed segments off the front of the list
// and retires them. Both hints move past a segment before it is
// retired, so no walk that starts after the retirement can reach it;
// walks that started earlier are pinned, and the collector waits for
// them. The caller must be pinned.
func (q *Queue[T]) unlinkDead() {
	for {
		f := q.first.Load()
		if f.consumed.Load() != SegSize {
			break
		}
		n := q.successor(f)
		// A hint is never behind first: it is f or already past it.
		q.headSeg.CompareAndSwap(f, n)
		q.tailSeg.CompareAndSwap(f, n)
		if q.first.CompareAndSwap(f, n) {
			q.col.Retire(f.recycle)
		}
	}
	q.col.Collect()
}

// Enqueue appends v at the tail. p is the caller's epoch participant.
func (q *Queue[T]) Enqueue(p *epoch.Participant, v T) {
	p.Pin()
	defer p.Unpin()
	for {
		t := q.tail.Add(1) - 1
		if invariant.Enabled {
			// Stretch the ticket-to-publish window: a dequeuer granted
			// ticket t must wait for our CAS, and the bitfield protocol
			// must tolerate the element being claimed-but-invisible.
			perturb.At(perturb.Enqueue)
		}
		seg := q.findSegment(t, &q.tailSeg)
		if seg == nil {
			// Ticket poisoned and its segment already unlinked; retry
			// with a fresh ticket.
			continue
		}
		c := &seg.cells[t%SegSize]
		c.val = v
		if c.state.CompareAndSwap(cellEmpty, cellFull) {
			return
		}
		// Poisoned by a dequeuer that overran the tail: clear our
		// tentative write and retry with a fresh ticket. The poisoner
		// already counted this cell as consumed.
		var zero T
		c.val = zero
	}
}

// noteConsumed bumps a segment's consumed count and unlinks dead
// leading segments when this one dies.
func (q *Queue[T]) noteConsumed(seg *segment[T]) {
	if seg.consumed.Add(1) == SegSize {
		q.unlinkDead()
	}
}

// Dequeue removes and returns the element at the head. ok is false if
// the queue appeared empty. p is the caller's epoch participant.
func (q *Queue[T]) Dequeue(p *epoch.Participant) (v T, ok bool) {
	p.Pin()
	defer p.Unpin()
	for {
		if q.head.Load() >= q.tail.Load() {
			var zero T
			return zero, false
		}
		h := q.head.Add(1) - 1
		if invariant.Enabled {
			perturb.At(perturb.Dequeue)
		}
		seg := q.findSegment(h, &q.headSeg)
		if seg == nil {
			// Unreachable (see findSegment): a dequeue ticket's
			// segment cannot be unlinked before its owner acts.
			panic("fifoq: dequeue ticket addresses an unlinked segment")
		}
		c := &seg.cells[h%SegSize]
		if h < q.tail.Load() {
			// An enqueuer owns this ticket and will fill the cell; it
			// may not have done so yet. Wait briefly — the window is
			// the few instructions between the enqueuer's FAA and its
			// CAS. On a single-CPU host we must yield, not spin.
			for spins := 0; ; spins++ {
				st := c.state.Load()
				if st == cellFull {
					val := c.val
					var zero T
					c.val = zero
					q.noteConsumed(seg)
					return val, true
				}
				if st == cellPoisoned {
					// Impossible: only this dequeuer could poison h.
					panic("fifoq: foreign poison on owned ticket")
				}
				if spins > 8 {
					runtime.Gosched()
				}
			}
		}
		// We overran the tail: try to poison the cell so the eventual
		// enqueuer of ticket h retries elsewhere. If the enqueuer beat
		// us to it, consume its value.
		if c.state.CompareAndSwap(cellEmpty, cellPoisoned) {
			q.noteConsumed(seg)
			continue // ticket burned; re-check emptiness
		}
		val := c.val
		var zero T
		c.val = zero
		q.noteConsumed(seg)
		return val, true
	}
}

// Len returns an instantaneous (racy) size estimate: the number of
// enqueue tickets not yet matched by dequeue tickets. It can
// transiently exceed the true element count while operations are in
// flight, which is exactly the semantics the bitfield double-check
// protocol needs (it must never report empty while an element is
// present).
func (q *Queue[T]) Len() int {
	h := q.head.Load()
	t := q.tail.Load()
	if t <= h {
		return 0
	}
	return int(t - h)
}

// Empty reports whether the queue appears empty.
func (q *Queue[T]) Empty() bool { return q.Len() == 0 }

// Tickets returns the instantaneous (head, tail) ticket counters: the
// number of dequeue and enqueue tickets ever claimed. The difference
// is Len; the absolute values identify a queue's total traffic, which
// the scheduler pool prints in invariant-failure diagnostics.
func (q *Queue[T]) Tickets() (head, tail uint64) {
	return q.head.Load(), q.tail.Load()
}
