package sched

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"icilk/internal/invariant"
)

// taskDriver parks a long-lived task on a command channel so tests can
// run scheduler operations on a task goroutine in lockstep with the
// test goroutine (each command executes body once, then acknowledges).
type taskDriver struct {
	cmd  chan func(*Task)
	done chan struct{}
	fut  *Future
}

func startDriver(rt *Runtime) *taskDriver {
	d := &taskDriver{cmd: make(chan func(*Task)), done: make(chan struct{})}
	d.fut = rt.SubmitFuture(0, func(task *Task) any {
		for body := range d.cmd {
			body(task)
			d.done <- struct{}{}
		}
		return nil
	})
	return d
}

func (d *taskDriver) do(body func(*Task)) {
	d.cmd <- body
	<-d.done
}

func (d *taskDriver) stop() {
	close(d.cmd)
	d.fut.Wait()
}

// TestSpawnSyncAllocFree pins the steady-state allocation budget of
// the spawn→sync hot path: with context recycling on, a spawn-sync
// pair reuses a parked goroutine, its resume channel, its Task, and
// (when the parent parks) a recycled deque, and the deques that cross
// the pool queue on the way ride recycled segments. Measured 0; the
// 0.05 only keeps a stray allocation by the Go runtime inside one of
// the runs from failing the gate.
func TestSpawnSyncAllocFree(t *testing.T) {
	if invariant.Race {
		t.Skip("allocation accounting differs under -race")
	}
	if invariant.Enabled {
		t.Skip("icilk_debug assertion builds trade allocations for checks")
	}
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	d := startDriver(rt)
	defer d.stop()

	const pairs = 100
	round := func() {
		d.do(func(task *Task) {
			for i := 0; i < pairs; i++ {
				task.Spawn(func(*Task) {})
				task.Sync()
			}
		})
	}
	round() // warm the free lists before measuring
	avg := testing.AllocsPerRun(20, round)
	if perOp := avg / pairs; perOp > 0.05 {
		t.Errorf("spawn-sync pair allocates %.3f objects/op, want 0", perOp)
	}
	// Across a collection: the contexts and the deques are the
	// runtime's, kept in lists a GC does not empty.
	if n := mallocsAfterGC(round); n != 0 {
		t.Errorf("spawn-sync after a GC: %d allocations over %d pairs, want 0", n, pairs)
	}
}

// TestCompletedFutureGetAllocFree pins the completed-future fast path:
// Get/TryGet/Done on a done future must not allocate (and must not
// touch the mutex-protected slow path's state).
func TestCompletedFutureGetAllocFree(t *testing.T) {
	if invariant.Race {
		t.Skip("allocation accounting differs under -race")
	}
	if invariant.Enabled {
		t.Skip("icilk_debug assertion builds trade allocations for checks")
	}
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	d := startDriver(rt)
	defer d.stop()

	var f *Future
	d.do(func(task *Task) {
		f = task.FutCreate(0, func(*Task) any { return 42 })
		if got := f.Get(task); got.(int) != 42 {
			t.Errorf("Get = %v, want 42", got)
		}
	})

	const gets = 100
	avg := testing.AllocsPerRun(20, func() {
		d.do(func(task *Task) {
			for i := 0; i < gets; i++ {
				if f.Get(task).(int) != 42 {
					t.Error("bad Get")
				}
				if v, ok := f.TryGet(); !ok || v.(int) != 42 {
					t.Error("bad TryGet")
				}
				if !f.Done() {
					t.Error("bad Done")
				}
			}
		})
	})
	if perOp := avg / gets; perOp > 0.05 {
		t.Errorf("completed-future Get allocates %.3f objects/op, want 0", perOp)
	}
}

// TestRecycleStressConcurrentSubmitters hammers the context free lists
// from many external submitters at once: they draw from the shared
// list only, the tasks they submit spawn from and finish onto the
// workers' own lists, and every root leaves one more context behind
// than it drew, so the workers' lists fill, spill to the shared one,
// and the submitters refill from there. Run with -race in CI. Every
// future must complete with the right value, the runtime must drain,
// and Close must leave no goroutine parked on either kind of list.
func TestRecycleStressConcurrentSubmitters(t *testing.T) {
	for _, pk := range allPolicies {
		pk := pk
		t.Run(pk.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			rt := newTestRuntime(t, Config{Workers: 4, Levels: 2, Policy: pk})
			const submitters = 8
			const perSubmitter = 60
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perSubmitter; i++ {
						want := s*perSubmitter + i
						f := rt.SubmitFuture(want%2, func(task *Task) any {
							sum := 0
							for c := 0; c < 3; c++ {
								c := c
								task.Spawn(func(ct *Task) {
									g := ct.FutCreate(ct.Level(), func(*Task) any { return c })
									sum += g.Get(ct).(int)
								})
								task.Sync()
							}
							return want + sum
						})
						if got := f.Wait().(int); got != want+3 {
							t.Errorf("future = %d, want %d", got, want+3)
							return
						}
					}
				}()
			}
			wg.Wait()
			if got := rt.Inflight(); got != 0 {
				t.Fatalf("inflight = %d after drain", got)
			}
			rt.Close()
			waitGoroutines(t, before)
		})
	}
}

// waitGoroutines waits for the goroutine count to fall back to want
// (contexts poisoned by Close exit on their own time).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the runtime, %d after Close", want, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTokenPassesTaskToTask pins the direct hand-off: on a one-worker
// runtime a root that does N spawn/sync round trips is one chain, and
// the worker goroutine hands its token out for it exactly once —
// parent, child and parent again pass it among themselves, and it
// comes home when the root's deque dies. (execute has no loop, so its
// entry count is the number of times the worker goroutine was needed.)
func TestTokenPassesTaskToTask(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	const trips = 1000
	ran := 0
	rt.Run(func(task *Task) any {
		for i := 0; i < trips; i++ {
			task.Spawn(func(*Task) { ran++ })
			task.Sync()
		}
		return nil
	})
	if ran != trips {
		t.Fatalf("%d of %d children ran", ran, trips)
	}
	// The entry happens-before the root's body and so before Run
	// returned; nothing else was submitted, so the worker is asleep.
	if got := rt.workers[0].executes; got != 1 {
		t.Fatalf("worker goroutine handed its token out %d times for one root of %d spawn/sync pairs, want 1", got, trips)
	}
	if got := rt.WasteReport().Spawns; got != trips {
		t.Fatalf("Spawns = %d, want %d", got, trips)
	}
}

// TestCloseDrainsFreeList checks that Close poisons the parked
// recycled contexts — the workers' own lists and the shared one — so a
// drained runtime leaves no goroutines behind. fib(12) on four workers
// finishes tasks on every worker.
func TestCloseDrainsFreeList(t *testing.T) {
	for _, pk := range allPolicies {
		t.Run(pk.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			rt := newTestRuntime(t, Config{Workers: 4, Levels: 1, Policy: pk})
			for i := 0; i < 8; i++ {
				rt.Run(func(task *Task) any { return fib(task, 12) })
			}
			// Workers, the Adaptive allocator, and whatever is parked.
			if n := runtime.NumGoroutine(); n <= before+rt.Workers()+1 {
				t.Fatalf("%d goroutines before the runtime, %d with it drained: no context is parked, so the test would not notice a leak", before, n)
			}
			rt.Close()
			waitGoroutines(t, before)
		})
	}
}

// TestFreeListOverflowExits reaches the two branches of putFree that
// ordinary load leaves alone, at the fixed capacities: a thousand roots
// blocked on one future hold a thousand contexts at once, and when the
// future completes they all finish together — the workers' lists fill
// and spill to the shared one, the shared one fills, and the contexts
// left over exit. What stays parked is bounded by the lists, and Close
// takes the goroutine count back to where it was before New.
func TestFreeListOverflowExits(t *testing.T) {
	for _, pk := range allPolicies {
		t.Run(pk.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			rt := newTestRuntime(t, Config{Workers: 4, Levels: 1, Policy: pk})
			const roots = 1000
			gate := rt.NewIOFuture()
			futs := make([]*Future, roots)
			for i := range futs {
				futs[i] = rt.SubmitFuture(0, func(task *Task) any { return gate.Get(task) })
			}
			if n := runtime.NumGoroutine(); n < before+roots {
				t.Fatalf("%d goroutines before the runtime, %d with %d roots blocked: want one context each", before, n, roots)
			}
			gate.Complete(7)
			for i, f := range futs {
				if got := f.Wait().(int); got != 7 {
					t.Fatalf("root %d = %d, want 7", i, got)
				}
			}
			// Workers, the Adaptive allocator, and full free lists; the
			// other ~680 contexts found no room and exited.
			waitGoroutines(t, before+rt.Workers()+1+sharedFreeCap+rt.Workers()*workerFreeCap)
			if got := len(rt.free); got != sharedFreeCap {
				t.Fatalf("shared free list holds %d contexts after %d finished at once, want it full at %d", got, roots, sharedFreeCap)
			}
			rt.Close()
			waitGoroutines(t, before)
		})
	}
}

// TestEpochParticipantsDoNotLeak: the participants that pool enqueues
// borrow must survive garbage collections. The collector keeps every
// participant ever registered and walks them all on each Collect, so
// a holder that lets the GC drop idle ones (a sync.Pool is emptied
// every second cycle) re-registers for ever: the count after many
// rounds of submit + GC must be the count after the first.
func TestEpochParticipantsDoNotLeak(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	round := func() {
		for i := 0; i < 10; i++ {
			rt.SubmitFuture(0, func(task *Task) any {
				task.Spawn(func(*Task) {})
				task.Sync()
				return nil
			}).Wait()
		}
		runtime.GC()
	}
	round()
	first := rt.col.Participants()
	for i := 0; i < 120; i++ {
		round()
	}
	// One per worker from New, plus one per goroutine that can be
	// inside a pool enqueue at once: the submitter, and on each worker
	// either the worker itself or the task holding its token.
	workers := rt.Workers()
	if got, peak := rt.col.Participants(), 2*workers+1; got > peak {
		t.Fatalf("%d epoch participants after the first round, %d after 120 more, want at most %d: enqueuers' participants are being dropped and re-registered",
			first, got, peak)
	}
}
