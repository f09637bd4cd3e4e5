package sched

import "sync"

// This file implements task-aware synchronization primitives — the
// paper's Section 7 names them explicitly as required future work:
// "real-world interactive applications are complex and use many
// features, e.g. locks and condition variables, which must be handled
// better if task-parallelism is to become the new way these
// applications are written."
//
// A plain sync.Mutex inside a task would block the *worker*; these
// primitives instead park the *task* exactly like a failed future get:
// the task's whole deque suspends, the worker moves on, and the wakeup
// re-enqueues the deque through the normal resumable path — so lock
// handoff inherits the scheduler's aging order and promptness checks.

// Mutex is a task-parallel mutual-exclusion lock. Lock suspends the
// calling task (not its worker) while the lock is held elsewhere;
// waiters are woken in FIFO order, consistent with the runtime's aging
// heuristic. Unlock may be called from any goroutine.
type Mutex struct {
	rt *Runtime

	mu      sync.Mutex
	locked  bool
	holder  int // priority level of current holder (diagnostics)
	waiters []*Future
}

// NewMutex creates a task mutex bound to the runtime.
func (rt *Runtime) NewMutex() *Mutex {
	return &Mutex{rt: rt, holder: -1}
}

// Lock acquires the mutex, suspending the calling task's deque while
// it waits. Waiters acquire in FIFO order (barging by fresh callers is
// prevented by direct handoff of the "locked" state... see Unlock).
func (m *Mutex) Lock(t *Task) {
	m.mu.Lock()
	if !m.locked {
		m.locked = true
		m.holder = t.level
		m.mu.Unlock()
		return
	}
	// Dynamic priority-inversion check: a higher-priority task is
	// about to wait on a lock held by a lower-priority one.
	if t.level < m.holder {
		m.rt.noteInversion()
	}
	f := m.rt.newFuture(t.w, -1)
	m.waiters = append(m.waiters, f)
	m.mu.Unlock()
	f.Get(t)
	// Direct handoff: the unlocker left the mutex marked locked on
	// our behalf; just record ourselves as holder.
	m.mu.Lock()
	m.holder = t.level
	m.mu.Unlock()
}

// TryLock acquires the mutex without waiting; it reports success.
func (m *Mutex) TryLock(t *Task) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.locked {
		return false
	}
	m.locked = true
	m.holder = t.level
	return true
}

// Unlock releases the mutex. If tasks are waiting, ownership is handed
// directly to the oldest waiter (its deque becomes resumable); the
// mutex never becomes observably free in between, so later Lock
// callers cannot barge ahead of parked waiters.
func (m *Mutex) Unlock() {
	m.mu.Lock()
	if !m.locked {
		m.mu.Unlock()
		panic("sched: Unlock of unlocked Mutex")
	}
	var next *Future
	if len(m.waiters) > 0 {
		next = m.waiters[0]
		m.waiters = m.waiters[1:]
		// locked stays true: direct handoff.
	} else {
		m.locked = false
		m.holder = -1
	}
	m.mu.Unlock()
	if next != nil {
		next.complete(nil)
	}
}

// Locked reports the instantaneous lock state (diagnostics/tests).
func (m *Mutex) Locked() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.locked
}

// Cond is a task-parallel condition variable associated with a Mutex.
// Wait suspends the calling task's deque; Signal and Broadcast may be
// called from any goroutine (with or without the mutex held).
type Cond struct {
	// L is the mutex that guards the condition.
	L *Mutex

	mu      sync.Mutex
	waiters []*Future
}

// NewCond creates a condition variable over m.
func (rt *Runtime) NewCond(m *Mutex) *Cond {
	return &Cond{L: m}
}

// Wait atomically releases c.L and suspends the task until woken, then
// reacquires c.L before returning. As with sync.Cond, callers must
// re-check their condition in a loop.
func (c *Cond) Wait(t *Task) {
	f := c.L.rt.newFuture(t.w, -1)
	c.mu.Lock()
	c.waiters = append(c.waiters, f)
	c.mu.Unlock()
	c.L.Unlock()
	f.Get(t)
	c.L.Lock(t)
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	c.mu.Lock()
	var f *Future
	if len(c.waiters) > 0 {
		f = c.waiters[0]
		c.waiters = c.waiters[1:]
	}
	c.mu.Unlock()
	if f != nil {
		f.complete(nil)
	}
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	c.mu.Lock()
	ws := c.waiters
	c.waiters = nil
	c.mu.Unlock()
	for _, f := range ws {
		f.complete(nil)
	}
}

// WaiterCount returns the number of parked waiters (tests).
func (c *Cond) WaiterCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
