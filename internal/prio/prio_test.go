package prio

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSetClearHighest(t *testing.T) {
	b := New()
	if _, ok := b.Highest(); ok {
		t.Fatal("empty bitfield reported work")
	}
	b.Set(5)
	b.Set(2)
	b.Set(63)
	if lvl, ok := b.Highest(); !ok || lvl != 2 {
		t.Fatalf("Highest = %d,%v want 2", lvl, ok)
	}
	b.Clear(2)
	if lvl, _ := b.Highest(); lvl != 5 {
		t.Fatalf("Highest = %d want 5", lvl)
	}
	if !b.IsSet(63) || b.IsSet(2) {
		t.Fatal("IsSet wrong")
	}
}

func TestHigherThan(t *testing.T) {
	b := New()
	b.Set(3)
	if _, ok := b.HigherThan(3); ok {
		t.Fatal("level 3 is not higher than itself")
	}
	if _, ok := b.HigherThan(2); ok {
		t.Fatal("no level higher than 2 is set")
	}
	if lvl, ok := b.HigherThan(5); !ok || lvl != 3 {
		t.Fatalf("HigherThan(5) = %d,%v want 3", lvl, ok)
	}
	b.Set(0)
	if lvl, _ := b.HigherThan(3); lvl != 0 {
		t.Fatalf("HigherThan(3) = %d want 0", lvl)
	}
	// Level 0 never abandons: nothing is higher.
	if _, ok := b.HigherThan(0); ok {
		t.Fatal("something higher than level 0?")
	}
}

func TestSetReturnsWokeOnZeroTransition(t *testing.T) {
	b := New()
	if !b.Set(4) {
		t.Fatal("zero->nonzero Set did not report wake")
	}
	if b.Set(4) || b.Set(7) {
		t.Fatal("non-transition Set reported wake")
	}
	b.Clear(4)
	b.Clear(7)
	if !b.Set(1) {
		t.Fatal("second zero->nonzero Set did not report wake")
	}
}

func TestDoubleCheckClear(t *testing.T) {
	b := New()
	b.Set(2)
	// Pool still empty at recheck: bit stays clear.
	b.DoubleCheckClear(2, func() bool { return true })
	if b.IsSet(2) {
		t.Fatal("bit set after clear with empty pool")
	}
	// Pool refilled between clear and recheck: bit must be restored.
	b.Set(2)
	b.DoubleCheckClear(2, func() bool { return false })
	if !b.IsSet(2) {
		t.Fatal("bit not restored when pool non-empty at recheck")
	}
}

func TestWaitNonZeroWakesOnSet(t *testing.T) {
	b := New()
	var woke atomic.Bool
	var slept atomic.Bool
	done := make(chan struct{})
	go func() {
		_, _, ok := b.WaitNonZero(func() { slept.Store(true) })
		if !ok {
			t.Error("WaitNonZero reported stopped")
		}
		woke.Store(true)
		close(done)
	}()
	time.Sleep(2 * time.Millisecond)
	if woke.Load() {
		t.Fatal("waiter woke before Set")
	}
	b.Set(9)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("waiter not woken by Set")
	}
	if !slept.Load() {
		t.Fatal("onSleep was not invoked")
	}
}

// TestWaitNonZeroCountsResleep: a sleeper woken by a broadcast whose
// bit is gone by the time it re-checks the field goes back to sleep,
// and WaitNonZero reports that futile wake beside the one it returns
// on. The bit is set and cleared around the broadcast under b.mu, as
// when another worker takes the work first; each step waits for the
// sleeper under b.mu, so the order is fixed.
func TestWaitNonZeroCountsResleep(t *testing.T) {
	b := New()
	type result struct {
		wakes int
		ok    bool
	}
	res := make(chan result, 1)
	go func() {
		_, wakes, ok := b.WaitNonZero(nil)
		res <- result{wakes, ok}
	}()
	waitGate := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			b.mu.Lock()
			done := cond()
			b.mu.Unlock()
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("the sleeper never %s", what)
			}
		}
	}
	waitGate("slept", func() bool { return b.sleepers == 1 })
	b.mu.Lock()
	b.bits.Or(1)
	b.cond.Broadcast()
	b.bits.And(0)
	b.mu.Unlock()
	waitGate("slept again", func() bool { return b.wakes == 1 && b.sleepers == 1 })
	b.Set(0)
	select {
	case r := <-res:
		if !r.ok || r.wakes != 2 {
			t.Fatalf("WaitNonZero returned %d wakes (ok %v), want 2: one futile, one real", r.wakes, r.ok)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the sleeper was not woken by Set")
	}
}

func TestWaitNonZeroImmediateWhenSet(t *testing.T) {
	b := New()
	b.Set(0)
	called := false
	if _, _, ok := b.WaitNonZero(func() { called = true }); !ok {
		t.Fatal("WaitNonZero returned stopped")
	}
	if called {
		t.Fatal("onSleep invoked though no sleep happened")
	}
}

func TestStopWakesAll(t *testing.T) {
	b := New()
	const n = 5
	var wg sync.WaitGroup
	results := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, results[i] = b.WaitNonZero(nil)
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	b.Stop()
	wg.Wait()
	for i, r := range results {
		if r {
			t.Fatalf("waiter %d returned true after Stop", i)
		}
	}
	if !b.Stopped() {
		t.Fatal("Stopped() false")
	}
}

// TestConcurrentSetClear hammers the bitfield; the invariant is that a
// bit observed set was set by someone and the field never corrupts
// adjacent bits.
func TestConcurrentSetClear(t *testing.T) {
	b := New()
	b.Set(63) // keep non-zero so waiters aren't involved
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(level int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				b.Set(level)
				if !b.IsSet(level) {
					t.Errorf("bit %d lost after Set", level)
					return
				}
				b.Clear(level)
			}
		}(g)
	}
	wg.Wait()
	if !b.IsSet(63) {
		t.Fatal("unrelated bit 63 was clobbered")
	}
	for g := 0; g < 4; g++ {
		if b.IsSet(g) {
			t.Fatalf("bit %d still set after final Clear", g)
		}
	}
}

// TestSetInCallerLoopTerminates runs Set and Clear in a closure's loop,
// the shape of the pinned benchmark's prio.set_clear_ns probe. Set
// inlined there compiled to a loop that never ends (see Set).
func TestSetInCallerLoopTerminates(t *testing.T) {
	b := New()
	done := make(chan struct{})
	go func() {
		callWith(10, func(n int) {
			for i := 0; i < n; i++ {
				b.Set(2)
				b.Clear(2)
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a 10-iteration Set/Clear loop did not finish")
	}
}

//go:noinline
func callWith(n int, f func(int)) { f(n) }

// TestSetHammerLosesNoWake races Sets against sleepers and clearing
// thieves: no zero->non-zero broadcast may be lost (a loss shows up as
// Stop stranding a sleeper, or a sleeper stuck while the field is
// non-zero). Run with -race.
func TestSetHammerLosesNoWake(t *testing.T) {
	b := New()
	const nSleepers = 4
	var wg sync.WaitGroup
	for i := 0; i < nSleepers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, _, ok := b.WaitNonZero(nil); !ok {
					return
				}
				if lvl, ok := b.Highest(); ok {
					b.DoubleCheckClear(lvl, func() bool { return true })
				}
			}
		}()
	}

	const stormers = 4
	const rounds = 2000
	var swg sync.WaitGroup
	for s := 0; s < stormers; s++ {
		swg.Add(1)
		go func(id int) {
			defer swg.Done()
			for r := 0; r < rounds; r++ {
				lvl := (id*13 + r) % MaxLevels
				b.Set(lvl)
				if r%3 == 0 {
					b.DoubleCheckClear(lvl, func() bool { return r%5 != 0 })
				}
			}
		}(s)
	}
	swg.Wait()

	b.Stop()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop stranded a sleeper")
	}
}
