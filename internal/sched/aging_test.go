package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPromptAgingFIFOResumption is the aging heuristic end to end:
// tasks blocked on I/O whose completions arrive in a known order must
// be *resumed* in that order under Prompt I-Cilk (single worker, so
// resumption order is directly observable). This is the property the
// pthread baseline gets implicitly from libevent and that the paper's
// centralized FIFO pool is designed to preserve.
func TestPromptAgingFIFOResumption(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	const n = 16
	gates := make([]*Future, n)
	for i := range gates {
		gates[i] = rt.NewIOFuture()
	}
	var mu sync.Mutex
	var order []int
	futs := make([]*Future, n)
	parked := make(chan struct{}, n)
	for i := range futs {
		i := i
		futs[i] = rt.SubmitFuture(0, func(task *Task) any {
			parked <- struct{}{}
			gates[i].Get(task)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		})
	}
	for i := 0; i < n; i++ {
		<-parked
	}
	// Give the last tasks time to actually suspend after signalling.
	time.Sleep(5 * time.Millisecond)
	// Complete in a scrambled but known order.
	perm := []int{3, 0, 7, 12, 1, 15, 9, 4, 11, 2, 13, 6, 10, 5, 14, 8}
	for _, i := range perm {
		gates[i].Complete(nil)
		// Space completions so each enqueue lands before the next
		// (the FIFO property under test is pool order, not the race
		// between simultaneous completions).
		time.Sleep(200 * time.Microsecond)
	}
	for _, f := range futs {
		f.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	// Resumption order must match completion order.
	for pos, want := range perm {
		if order[pos] != want {
			t.Fatalf("resumption order %v != completion order %v", order, perm)
		}
	}
}

// TestMuggingQueueBeatsRegularQueue checks the de-aging fix: an
// abandoned (immediately resumable) deque must be picked up before
// deques that became resumable *after* other queued work — thieves
// consult the mugging queue first.
func TestMuggingQueueBeatsRegularQueue(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 2, Policy: Prompt})
	var mu sync.Mutex
	var order []string
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}

	lowStarted := make(chan struct{})
	highDone := make(chan struct{})
	// A low-priority task that spins at scheduling points until the
	// high-priority task has run — it can only finish after being
	// abandoned (the single worker must first leave it for the high
	// task) and later resumed from the mugging queue.
	abandoned := rt.SubmitFuture(1, func(task *Task) any {
		close(lowStarted)
		for {
			select {
			case <-highDone:
				record("abandoned-task")
				return nil
			default:
				task.Yield() // the abandonment point
			}
		}
	})
	<-lowStarted

	// Freshly submitted low-priority work that enters the REGULAR
	// queue while the abandoned deque will sit in the mugging queue.
	fresh := rt.SubmitFuture(1, func(task *Task) any {
		record("fresh-task")
		return nil
	})
	// High-priority work triggers the abandonment.
	rt.SubmitFuture(0, func(task *Task) any {
		record("high")
		close(highDone)
		return nil
	}).Wait()
	abandoned.Wait()
	fresh.Wait()

	mu.Lock()
	defer mu.Unlock()
	// The abandoned task must resume before the fresh task: mugging
	// queue first. ("high" is first overall.)
	posAbandoned, posFresh := -1, -1
	for i, s := range order {
		switch s {
		case "abandoned-task":
			posAbandoned = i
		case "fresh-task":
			posFresh = i
		}
	}
	if posAbandoned == -1 || posFresh == -1 {
		t.Fatalf("missing records: %v", order)
	}
	if posAbandoned > posFresh {
		t.Fatalf("abandoned deque was de-aged behind fresh work: %v", order)
	}
}

// TestDoubleCheckNoLostWork hammers the empty↔non-empty transition
// with a single worker: a lost wakeup or an incorrectly-cleared
// bitfield bit would deadlock the drain.
func TestDoubleCheckNoLostWork(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	for round := 0; round < 300; round++ {
		f := rt.SubmitFuture(0, func(*Task) any { return round })
		if got := f.Wait().(int); got != round {
			t.Fatalf("round %d returned %d", round, got)
		}
	}
}

// TestBitfieldNeverUnderReports is the bitfield conservation property
// checked from outside the scheduler, so it also runs in builds
// without the invariant layer: under a churning multi-worker workload,
// "level bit clear AND the level's pool holds a deque" may exist only
// transiently (the enqueue→Set window); if an observation of that
// state survives repeated re-probes, a level's population has escaped
// the bitfield and promptness is broken. Run with -race in CI.
func TestBitfieldNeverUnderReports(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 4, Levels: 2, Policy: Prompt})
	pool := rt.pol.(*promptPolicy).pool

	stop := make(chan struct{})
	violation := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			for lvl := 0; lvl < 2; lvl++ {
				if rt.bits.Load()&(1<<uint(lvl)) != 0 || pool.empty(lvl) {
					continue
				}
				// Suspicious state: re-probe. The enqueue→Set window
				// self-heals in microseconds; 50ms of persistence means
				// the bit was lost.
				healed := false
				for i := 0; i < 500; i++ {
					if rt.bits.Load()&(1<<uint(lvl)) != 0 || pool.empty(lvl) {
						healed = true
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
				if !healed {
					select {
					case violation <- pool.debug(lvl):
					default:
					}
					return
				}
			}
		}
	}()

	var sum atomic.Int64
	var futs []*Future
	for r := 0; r < 20; r++ {
		lvl := r % 2
		futs = append(futs, rt.SubmitFuture(lvl, func(task *Task) any {
			v := fib(task, 10)
			sum.Add(int64(v))
			return v
		}))
	}
	deadline := time.After(time.Minute)
	for i, f := range futs {
		select {
		case <-f.WaitChan():
		case msg := <-violation:
			t.Fatalf("bitfield under-reported a populated level: %s", msg)
		case <-deadline:
			t.Fatalf("future %d never completed: scheduler lost work", i)
		}
	}
	close(stop)
	select {
	case msg := <-violation:
		t.Fatalf("bitfield under-reported a populated level: %s", msg)
	default:
	}
	if got, want := sum.Load(), int64(20*55); got != want { // fib(10)=55
		t.Fatalf("workload sum = %d, want %d", got, want)
	}
}

// TestPromptTargetsHighestLevel verifies steal targeting: with many
// levels populated, an idle worker always takes from the highest
// (lowest-index) level first.
func TestPromptTargetsHighestLevel(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 4, Policy: Prompt})
	// Occupy the single worker with a task that has no icilk
	// scheduling points (runtime.Gosched only yields the OS thread,
	// not the icilk worker), so submissions pile up in the pools.
	var release atomic.Bool
	started := make(chan struct{})
	blocker := rt.SubmitFuture(0, func(task *Task) any {
		close(started)
		for !release.Load() {
			runtime.Gosched()
		}
		return nil
	})
	<-started

	var mu sync.Mutex
	var order []int
	var futs []*Future
	for _, lvl := range []int{3, 1, 2} { // queue out of order
		lvl := lvl
		futs = append(futs, rt.SubmitFuture(lvl, func(task *Task) any {
			mu.Lock()
			order = append(order, lvl)
			mu.Unlock()
			return nil
		}))
	}
	time.Sleep(2 * time.Millisecond)
	release.Store(true)
	blocker.Wait()
	for _, f := range futs {
		f.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 2, 3}
	for i, lvl := range want {
		if order[i] != lvl {
			t.Fatalf("execution order %v, want %v (priority order)", order, want)
		}
	}
}
