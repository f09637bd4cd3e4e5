// Package trace is a low-overhead scheduler event log: a fixed-size
// ring of (timestamp, worker, level, kind) records that the runtime
// emits at its decision points (steals, muggings, abandonments,
// suspensions, resumptions, sleeps, wakes). A writer claims a slot with
// one atomic add and fills it under the slot's own lock, which it
// shares with another writer only when lapped by the whole ring. It exists
// for debugging scheduler behaviour and for validating claims like
// "the worker abandoned within one scheduling point of the bit being
// set" without perturbing the measurements a profiler would.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind labels a scheduler event.
type Kind uint8

// Scheduler event kinds.
const (
	// Steal: a thief took the top frame of a deque.
	Steal Kind = iota
	// Mug: a thief adopted a whole resumable deque.
	Mug
	// Abandon: a worker left its deque for a higher-priority level.
	Abandon
	// Suspend: a deque suspended at a failed get.
	Suspend
	// Resume: a deque became resumable (future completed).
	Resume
	// Sleep: a worker began waiting on the all-zero bitfield gate.
	Sleep
	// Wake: a worker returned from the gate.
	Wake
	// Enqueue: a deque entered a centralized pool queue.
	Enqueue
	// Drop: a pool pop discarded an empty/dead deque (lazy removal).
	Drop
	numKinds = iota
)

func (k Kind) String() string {
	switch k {
	case Steal:
		return "steal"
	case Mug:
		return "mug"
	case Abandon:
		return "abandon"
	case Suspend:
		return "suspend"
	case Resume:
		return "resume"
	case Sleep:
		return "sleep"
	case Wake:
		return "wake"
	case Enqueue:
		return "enqueue"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one record.
type Event struct {
	// TS is nanoseconds since the log was created.
	TS int64
	// Worker is the acting worker's id (-1 for non-worker goroutines,
	// e.g. I/O handler threads emitting Resume).
	Worker int32
	// Level is the priority level the event concerns.
	Level int32
	Kind  Kind
}

// Log is a fixed-capacity ring. A nil *Log is valid and drops all
// events, so call sites need no conditional.
type Log struct {
	start  time.Time
	ring   []slot
	pos    atomic.Uint64 // total events ever claimed
	counts [numKinds]atomic.Int64
}

// slot is one ring cell. Add claims an index from pos before it writes
// the cell, so a reader (or a writer lapped by the whole ring) can
// arrive while the cell still holds an older event: seq says which
// event the cell holds, and mu orders the cell's writers and readers.
type slot struct {
	mu  sync.Mutex
	seq uint64 // 1 + index of the event held; 0 = never written
	ev  Event
}

// New creates a log holding the most recent capacity events.
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Log{start: time.Now(), ring: make([]slot, capacity)}
}

// Add records one event. Safe for concurrent use; nil-safe.
func (l *Log) Add(k Kind, worker, level int) {
	if l == nil {
		return
	}
	i := l.pos.Add(1) - 1
	ev := Event{
		TS:     int64(time.Since(l.start)),
		Worker: int32(worker),
		Level:  int32(level),
		Kind:   k,
	}
	s := &l.ring[i%uint64(len(l.ring))]
	s.mu.Lock()
	if s.seq <= i { // a lapped writer must not bury a newer event
		s.seq, s.ev = i+1, ev
	}
	s.mu.Unlock()
	l.counts[k].Add(1)
}

// Count returns how many events of kind k were ever recorded.
func (l *Log) Count(k Kind) int64 {
	if l == nil {
		return 0
	}
	return l.counts[k].Load()
}

// Total returns the number of events ever recorded.
func (l *Log) Total() int64 {
	if l == nil {
		return 0
	}
	return int64(l.pos.Load())
}

// Snapshot returns the retained events, oldest first. It is safe
// against concurrent Adds: an event claimed but not yet written, or
// already overwritten by a newer one, is left out, so a snapshot of a
// live log may be short at either end but never holds a torn record.
func (l *Log) Snapshot() []Event {
	if l == nil {
		return nil
	}
	total := l.pos.Load()
	n := uint64(len(l.ring))
	lo := uint64(0)
	if total > n {
		lo = total - n
	}
	out := make([]Event, 0, total-lo)
	for i := lo; i < total; i++ {
		s := &l.ring[i%n]
		s.mu.Lock()
		if s.seq == i+1 {
			out = append(out, s.ev)
		}
		s.mu.Unlock()
	}
	return out
}

// String summarizes event counts.
func (l *Log) String() string {
	if l == nil {
		return "trace(disabled)"
	}
	s := "trace{"
	for k := Kind(0); k < numKinds; k++ {
		if c := l.counts[k].Load(); c > 0 {
			s += fmt.Sprintf("%v:%d ", k, c)
		}
	}
	return s + fmt.Sprintf("total:%d}", l.Total())
}
