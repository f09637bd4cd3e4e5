package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// newTestRT builds a small runtime for the cancellation tests.
func newTestRT(t *testing.T, workers, levels int) *Runtime {
	t.Helper()
	rt, err := New(Config{Workers: workers, Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestDeadlineUnwindsAtSchedulingPoint(t *testing.T) {
	rt := newTestRT(t, 2, 1)
	var iters atomic.Int64
	f := rt.SubmitFutureWithDeadline(0, 20*time.Millisecond, func(task *Task) any {
		// Spin through scheduling points until the deadline unwinds us.
		for {
			iters.Add(1)
			task.Yield()
		}
	})
	v := f.Wait()
	if err := f.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want DeadlineExceeded", err)
	}
	if v != nil {
		t.Fatalf("value = %v, want nil from unwound routine", v)
	}
	if iters.Load() == 0 {
		t.Fatal("body never ran")
	}
}

func TestDeadlineNotExceeded(t *testing.T) {
	rt := newTestRT(t, 2, 1)
	f := rt.SubmitFutureWithDeadline(0, time.Minute, func(task *Task) any { return 42 })
	if v := f.Wait(); v != 42 {
		t.Fatalf("value = %v, want 42", v)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
}

func TestZeroTimeoutMeansNoDeadline(t *testing.T) {
	rt := newTestRT(t, 2, 1)
	f := rt.SubmitFutureWithDeadline(0, 0, func(task *Task) any { return "ok" })
	if v := f.Wait(); v != "ok" {
		t.Fatalf("value = %v", v)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
}

// TestDeadlineWhileQueuedSkipsBody: a tree whose deadline passes
// before its first resume never runs its body. A deadline-free hog
// holds the only worker past the queued request's deadline; the worker
// then pops the doomed deque and abandons it.
func TestDeadlineWhileQueuedSkipsBody(t *testing.T) {
	rt := newTestRT(t, 1, 1)
	release := make(chan struct{})
	hog := rt.SubmitFuture(0, func(task *Task) any {
		for {
			select {
			case <-release:
				return nil
			default:
				task.Yield()
			}
		}
	})
	var ran atomic.Bool
	f := rt.SubmitFutureWithDeadline(0, 5*time.Millisecond, func(task *Task) any {
		ran.Store(true)
		return nil
	})
	time.Sleep(30 * time.Millisecond)
	close(release)
	hog.Wait()
	f.Wait()
	if ran.Load() {
		t.Fatal("body ran after its deadline passed in the queue")
	}
	if err := f.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want DeadlineExceeded", err)
	}
}

// TestCancelJoinsOutstandingChildren is the delicate invariant: a
// parent cancelled between Spawn and Sync must still join its
// children before finishing, or a late child completion would poke a
// recycled task context. The children have no fixed amount of work to
// race the deadline with: each runs until the cancellation unwinds it
// (the wall-clock cap only bounds a failing run), so the root can only
// resolve through the unwind path, however fast spawns are.
func TestCancelJoinsOutstandingChildren(t *testing.T) {
	rt := newTestRT(t, 2, 2)
	var running, gaveUp atomic.Int64
	f := rt.SubmitFutureWithDeadline(0, 15*time.Millisecond, func(task *Task) any {
		for i := 0; i < 4; i++ {
			task.Spawn(func(ct *Task) {
				running.Add(1)
				defer running.Add(-1) // runs as the unwind passes through
				for limit := time.Now().Add(2 * time.Second); time.Now().Before(limit); {
					spin(500)
					ct.Yield()
				}
				gaveUp.Add(1)
			})
		}
		task.Sync()
		return "finished"
	})
	v := f.Wait()
	if err := f.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v (value %v, %d children outlasted the cap), want DeadlineExceeded", err, v, gaveUp.Load())
	}
	// Join before finish: the root resolved, so every child it spawned
	// has already unwound.
	if n := running.Load(); n != 0 {
		t.Fatalf("root resolved with %d children still running", n)
	}
	if n := gaveUp.Load(); n != 0 {
		t.Fatalf("%d children ran into the 2 s cap instead of being unwound", n)
	}
	// Drain: no child may still be in flight after the root resolved.
	deadline := time.Now().Add(2 * time.Second)
	for rt.Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight stuck at %d", rt.Inflight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSyncUnwindsAfterCancelledChild: a parent parked in Sync (its
// continuation stolen while the child runs) is released by a child
// that unwound, its work undone. Sync must unwind the parent too
// rather than return as if the child had finished: the job server's
// mergesort merged such half-sorted runs and failed its sortedness
// check under overload.
func TestSyncUnwindsAfterCancelledChild(t *testing.T) {
	rt := newTestRT(t, 2, 1)
	for i := 0; i < 20; i++ {
		var continued atomic.Bool
		f := rt.SubmitFutureWithDeadline(0, 2*time.Millisecond, func(task *Task) any {
			task.Spawn(func(ct *Task) {
				for {
					spin(500)
					ct.Yield()
				}
			})
			task.Sync()
			continued.Store(true)
			return nil
		})
		f.Wait()
		if continued.Load() {
			t.Fatalf("round %d: the parent ran past Sync after its child was cancelled", i)
		}
		if err := f.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: Err() = %v, want DeadlineExceeded", i, err)
		}
	}
}

func TestTaskErrCooperative(t *testing.T) {
	rt := newTestRT(t, 2, 1)
	var sawErr atomic.Bool
	f := rt.SubmitFutureWithDeadline(0, 10*time.Millisecond, func(task *Task) any {
		for task.Err() == nil {
			spin(2000)
		}
		sawErr.Store(true)
		return "graceful"
	})
	v := f.Wait()
	if !sawErr.Load() {
		t.Fatal("task never observed Err()")
	}
	// A graceful return still completes with the cancellation cause
	// attached (the request missed its deadline either way) but keeps
	// its value.
	if v != "graceful" {
		t.Fatalf("value = %v, want graceful", v)
	}
	if err := f.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want DeadlineExceeded", err)
	}
}

// TestDeadlineUnwindsOnIOResume: a deadline cannot wake a task
// suspended in Get on an I/O future (completion is the only wake-up),
// but once the I/O completes the resumed task must observe the fired
// cancellation immediately — before running its continuation — rather
// than executing doomed work until its next scheduling point.
func TestDeadlineUnwindsOnIOResume(t *testing.T) {
	rt := newTestRT(t, 2, 1)
	iof := rt.NewIOFuture()
	var continued atomic.Bool
	f := rt.SubmitFutureWithDeadline(0, 5*time.Millisecond, func(task *Task) any {
		v := iof.Get(task)
		continued.Store(true)
		return v
	})
	time.Sleep(30 * time.Millisecond) // deadline fires during the I/O wait
	iof.Complete("late io")
	f.Wait()
	if continued.Load() {
		t.Fatal("continuation ran after the deadline fired during an I/O wait")
	}
	if err := f.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want DeadlineExceeded", err)
	}
	waitInflightZero(t, rt)
}

// TestFutCreateInheritsCancel: helper futures created by a cancelled
// request unwind with it.
func TestFutCreateInheritsCancel(t *testing.T) {
	rt := newTestRT(t, 2, 2)
	f := rt.SubmitFutureWithDeadline(0, 15*time.Millisecond, func(task *Task) any {
		h := task.FutCreate(1, func(ct *Task) any {
			for {
				ct.Yield()
			}
		})
		h.Get(task) // unwinds here (h never completes normally)
		return nil
	})
	f.Wait()
	if err := f.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want DeadlineExceeded", err)
	}
	waitInflightZero(t, rt)
}

func waitInflightZero(t *testing.T, rt *Runtime) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for rt.Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight stuck at %d", rt.Inflight())
		}
		time.Sleep(time.Millisecond)
	}
}

// spin burns a little CPU without a scheduling point.
func spin(n int) {
	x := 1.0
	for i := 0; i < n; i++ {
		x += 1.0 / x
	}
	_ = x
}

// TestConcurrentDeadlineStress hammers submit/cancel/complete
// concurrently; run with -race to exercise the ordering claims.
func TestConcurrentDeadlineStress(t *testing.T) {
	rt := newTestRT(t, 4, 2)
	const n = 200
	futs := make([]*Future, n)
	for i := range futs {
		lvl := i % 2
		timeout := time.Duration(1+i%5) * time.Millisecond
		futs[i] = rt.SubmitFutureWithDeadline(lvl, timeout, func(task *Task) any {
			for j := 0; j < 50; j++ {
				task.Spawn(func(ct *Task) { spin(500) })
				task.Sync()
			}
			return 1
		})
	}
	done, late := 0, 0
	for _, f := range futs {
		f.Wait()
		if f.Err() != nil {
			late++
		} else {
			done++
		}
	}
	t.Logf("completed=%d cancelled=%d", done, late)
	waitInflightZero(t, rt)
}

// TestRecycledContextDropsCancel: a context recycled off the free
// list must not carry the previous task's cancellation state.
func TestRecycledContextDropsCancel(t *testing.T) {
	rt := newTestRT(t, 1, 1)
	// Burn a cancelled task through the free list.
	f := rt.SubmitFutureWithDeadline(0, time.Nanosecond, func(task *Task) any {
		for {
			task.Yield()
		}
	})
	f.Wait()
	waitInflightZero(t, rt)
	// Recycled contexts must start un-cancellable.
	for i := 0; i < 10; i++ {
		g := rt.SubmitFuture(0, func(task *Task) any {
			if task.Err() != nil {
				return "stale cancel"
			}
			task.Yield() // would unwind if stale state survived
			return "clean"
		})
		if v := g.Wait(); v != "clean" {
			t.Fatalf("run %d: %v", i, v)
		}
	}
}
