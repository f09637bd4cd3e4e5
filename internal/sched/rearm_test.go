package sched

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
)

// forEachSeed runs body once in a plain build and once per perturbation
// seed in an icilk_debug build (ICILK_PERTURB_SEED pins one), so the
// same test pins the semantics and probes the windows.
func forEachSeed(t *testing.T, body func(t *testing.T)) {
	if !invariant.Enabled {
		body(t)
		return
	}
	for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			perturb.Enable(seed)
			defer perturb.Disable()
			body(t)
		})
	}
}

// suspendedOn reports how many deques are suspended on f.
func suspendedOn(f *Future) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.waiters)
	if f.waiter1 != nil {
		n++
	}
	return n
}

func waitSuspended(t *testing.T, f *Future, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for suspendedOn(f) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d tasks suspended on the future", suspendedOn(f), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestGetWaitersResumeInSuspendOrder: three tasks Get one pending
// future (the first takes the inline slot, the others spill), and one
// completion resumes all of them, in the order they suspended. One
// worker makes the pool's FIFO order observable.
func TestGetWaitersResumeInSuspendOrder(t *testing.T) {
	forEachSeed(t, func(t *testing.T) {
		rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
		f := rt.NewIOFuture()
		var mu sync.Mutex
		var resumed []int
		var futs []*Future
		for i := 0; i < 3; i++ {
			i := i
			futs = append(futs, rt.SubmitFuture(0, func(task *Task) any {
				v := f.Get(task).(int)
				mu.Lock()
				resumed = append(resumed, i)
				mu.Unlock()
				return v
			}))
			// The next task is submitted only once this one is
			// suspended, so submit order is suspend order.
			waitSuspended(t, f, i+1)
		}
		f.Complete(7)
		for i, tf := range futs {
			select {
			case <-tf.WaitChan():
			case <-time.After(30 * time.Second):
				t.Fatalf("waiter %d never resumed", i)
			}
			if got := tf.Wait().(int); got != 7 {
				t.Fatalf("waiter %d got %d, want 7", i, got)
			}
		}
		if fmt.Sprint(resumed) != "[0 1 2]" {
			t.Fatalf("resume order %v, want suspend order [0 1 2]", resumed)
		}
		if n := suspendedOn(f); n != 0 {
			t.Fatalf("%d waiters left registered after completion", n)
		}
	})
}

// TestRearmMisuseTripsInvariant: each precondition of Rearm has its own
// assertion in icilk_debug builds.
func TestRearmMisuseTripsInvariant(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("Rearm's preconditions are checked only in icilk_debug builds")
	}
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	mustTrip := func(name, want string, f *Future) {
		t.Helper()
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Errorf("%s: Rearm panicked with %v, want a violation mentioning %q", name, r, want)
			}
			f.mu.Unlock() // the failed check fired under f.mu
		}()
		f.Rearm()
	}

	mustTrip("pending", "pending future", rt.NewIOFuture())

	backed := rt.SubmitFuture(0, func(*Task) any { return 1 })
	backed.Wait()
	mustTrip("task-backed", "task-backed future", backed)

	withCB := rt.NewIOFuture()
	withCB.OnComplete(func(error) {})
	mustTrip("OnComplete registered", "OnComplete callbacks", withCB)

	waited := rt.NewIOFuture()
	tf := rt.SubmitFuture(0, func(task *Task) any { return waited.Get(task) })
	waitSuspended(t, waited, 1)
	mustTrip("waiter suspended", "suspended waiters", waited)
	waited.Complete(nil)
	tf.Wait()

	// The legal cycle still works afterwards.
	ok := rt.NewIOFuture()
	ok.Complete(1)
	ok.Rearm()
	if ok.Done() {
		t.Fatal("Rearm left the future done")
	}
	ok.Complete(2)
	if v, _ := ok.TryGet(); v.(int) != 2 {
		t.Fatalf("second completion delivered %v, want 2", v)
	}
}

// TestRearmCycleStress drives ONE future through many
// arm/complete/Get/Rearm cycles on two workers, the way a connection's
// read waiter is used, with the completion landing (a) before Get, so
// Get takes the done fast path, (b) concurrently with Get, i.e.
// anywhere up to the window between Suspend and park that
// perturb.Suspend stretches, and (c) after the deque is registered as
// suspended. A lost wake-up hangs the task (caught by the deadline); a
// completion that outlives its cycle panics with "completed twice".
func TestRearmCycleStress(t *testing.T) {
	forEachSeed(t, func(t *testing.T) {
		rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
		const cycles = 20000
		f := rt.NewIOFuture()
		armed := make(chan int) // cycle number, handed to the completer
		completerDone := make(chan struct{})
		go func() {
			defer close(completerDone)
			for i := range armed {
				if i%3 == 2 {
					for suspendedOn(f) == 0 {
						time.Sleep(5 * time.Microsecond)
					}
				}
				f.Complete(i)
			}
		}()
		tf := rt.SubmitFuture(0, func(task *Task) any {
			for i := 0; i < cycles; i++ {
				if f.Done() {
					f.Rearm()
				}
				if i%3 == 0 {
					f.Complete(i)
				} else {
					armed <- i
				}
				if got := f.Get(task).(int); got != i {
					return fmt.Errorf("cycle %d: Get = %d", i, got)
				}
			}
			return nil
		})
		select {
		case <-tf.WaitChan():
		case <-time.After(2 * time.Minute):
			t.Fatalf("stalled: a completion's wake-up was lost (seed %#x)", perturb.Seed())
		}
		close(armed)
		<-completerDone
		if err, _ := tf.Wait().(error); err != nil {
			t.Fatal(err)
		}
		// Every (c) cycle suspended by construction.
		if got := rt.WasteReport().Suspends; got < cycles/3 {
			t.Fatalf("%d suspensions over %d cycles, want >= %d", got, cycles, cycles/3)
		}
	})
}

// TestSuspendedGetAllocFree pins the missing row of the hot-path cost
// model: a Get that must suspend, on a reused I/O future, allocates
// nothing of its own — the waiter sits in the future's inline slot.
// What remains (measured 0.09/op) is the pool FIFO replacing its
// segment directory once per fifoq.SegSize enqueues, the same stray
// traffic TestSpawnSyncAllocFree tolerates; the parent commit's
// one-element waiters slice alone costs 1.0/op.
func TestSuspendedGetAllocFree(t *testing.T) {
	if invariant.Race {
		t.Skip("allocation accounting differs under -race")
	}
	if invariant.Enabled {
		t.Skip("icilk_debug assertion builds trade allocations for checks")
	}
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	d := startDriver(rt)
	defer d.stop()

	f := rt.NewIOFuture()
	armed := make(chan struct{})
	go func() {
		for range armed {
			for suspendedOn(f) == 0 {
				time.Sleep(5 * time.Microsecond)
			}
			f.Complete(nil)
		}
	}()
	defer close(armed)
	const gets = 100
	cycle := func(task *Task) {
		for i := 0; i < gets; i++ {
			if f.Done() {
				f.Rearm()
			}
			armed <- struct{}{}
			f.Get(task)
		}
	}
	d.do(cycle) // warm the free lists
	avg := testing.AllocsPerRun(10, func() { d.do(cycle) })
	if perOp := avg / gets; perOp > 0.2 {
		t.Errorf("suspended Get allocates %.3f objects/op, want <= 0.2", perOp)
	}
}
