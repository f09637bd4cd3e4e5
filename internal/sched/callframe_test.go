package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestCallFrameScopedJoin is the core called-frame property: a Sync
// inside a called frame joins only the frame's own spawns, not the
// caller's outstanding children. The caller spawns a child that stalls
// on a channel, then Calls a frame that spawns and syncs; the frame
// must complete while the caller's child is still stalled.
//
// The scenario needs a thief to resume the caller's continuation while
// the stalled child occupies its worker, so it runs under Prompt,
// whose idle workers always search. The adaptive policies park workers
// on low demand, and a deliberately-blocked child keeps the sole
// active worker busy without raising the allocator's desire — the
// continuation would wait forever by design, not by defect.
// TestCallAllPolicies covers the frame mechanics across the matrix.
func TestCallFrameScopedJoin(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 4, Levels: 1, Policy: Prompt})
	release := make(chan struct{})
	frameDone := make(chan struct{})
	rt.Run(func(task *Task) any {
		task.Spawn(func(*Task) { <-release })
		task.Call(func(ft *Task) {
			var inner atomic.Int32
			ft.Spawn(func(*Task) { inner.Add(1) })
			ft.Sync() // must NOT wait for the stalled outer child
			if inner.Load() != 1 {
				t.Error("frame sync returned before its own child finished")
			}
		})
		close(frameDone)
		close(release)
		task.Sync()
		return nil
	})
	select {
	case <-frameDone:
	default:
		t.Fatal("called frame never completed")
	}
}

// TestCallAllPolicies runs nested frames with real spawns under every
// scheduler policy. No child blocks, so the test is safe under the
// adaptive allocators' serial child-first execution while still
// exercising frame push/pop, join scoping, and worker writeback on
// each policy's resume path.
func TestCallAllPolicies(t *testing.T) {
	for _, pk := range allPolicies {
		pk := pk
		t.Run(pk.String(), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Workers: 4, Levels: 1, Policy: pk})
			var total atomic.Int64
			rt.Run(func(task *Task) any {
				for round := 0; round < 20; round++ {
					task.Spawn(func(*Task) { total.Add(1) })
					task.Call(func(ft *Task) {
						ft.Spawn(func(*Task) { total.Add(1) })
						ft.Call(func(ft2 *Task) {
							ft2.Spawn(func(*Task) { total.Add(1) })
							ft2.Sync()
						})
						ft.Sync()
					})
					task.Sync()
				}
				return nil
			})
			if got := total.Load(); got != 20*3 {
				t.Fatalf("spawn count = %d, want %d", got, 20*3)
			}
		})
	}
}

// TestCallFrameStalledSiblingDoesNotBlockFrame drives the scoped-join
// property from outside the task: the frame's completion is observed
// on a separate goroutine with a timeout while the caller's direct
// child is provably still running.
func TestCallFrameStalledSiblingDoesNotBlockFrame(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 4, Levels: 1, Policy: Prompt})
	release := make(chan struct{})
	frameSynced := make(chan struct{})
	go func() {
		rt.Run(func(task *Task) any {
			task.Spawn(func(*Task) { <-release })
			task.Call(func(ft *Task) {
				ft.Spawn(func(*Task) {})
				ft.Sync()
			})
			close(frameSynced)
			task.Sync()
			return nil
		})
	}()
	select {
	case <-frameSynced:
	case <-time.After(5 * time.Second):
		t.Fatal("called frame's sync blocked behind the caller's stalled child")
	}
	close(release)
}

// TestCallNested exercises frames inside frames (the shape every
// divide-and-conquer helper produces) down to a real spawn tree.
func TestCallNested(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 4, Levels: 1, Policy: Prompt})
	var sum atomic.Int64
	var rec func(t *Task, depth int)
	rec = func(t *Task, depth int) {
		if depth == 0 {
			sum.Add(1)
			return
		}
		t.Spawn(func(ct *Task) { rec(ct, depth-1) })
		t.Call(func(ft *Task) { rec(ft, depth-1) })
		t.Sync()
	}
	rt.Run(func(task *Task) any {
		task.Call(func(ft *Task) { rec(ft, 6) })
		return nil
	})
	if got := sum.Load(); got != 64 {
		t.Fatalf("leaf count = %d, want 64", got)
	}
}

// TestCallMissingSyncPanics: a called frame returning with outstanding
// spawns is the same protocol violation as a task doing so, and must
// be as loud.
func TestCallMissingSyncPanics(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	// The child stays outstanding until the frame has returned (on the
	// thief that took its continuation), however slowly that thief wakes.
	var returned atomic.Bool
	rt.Run(func(task *Task) any {
		defer func() {
			if recover() == nil {
				t.Error("no panic from a called frame with outstanding children")
			}
			returned.Store(true)
			// The leaked child shares the caller's goroutine-level safety:
			// join it so the runtime can shut down cleanly.
			task.Sync()
		}()
		task.Call(func(ft *Task) {
			ft.Spawn(func(*Task) {
				for deadline := time.Now().Add(5 * time.Second); !returned.Load() && time.Now().Before(deadline); {
					runtime.Gosched()
				}
			})
			// missing ft.Sync()
		})
		return nil
	})
}

// TestCallWorkerMigrationWriteback: if the goroutine migrates workers
// while parked inside the frame (here: at the frame's sync), the
// caller must observe the new worker after Call returns — its next
// Spawn pushes onto the adopted deque. A stale worker pointer would
// corrupt the deque protocol; the invariant build's token check
// catches it, and under any build the spawn tree still completing is
// the behavioural check.
func TestCallWorkerMigrationWriteback(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 4, Levels: 1, Policy: Prompt})
	var total atomic.Int64
	rt.Run(func(task *Task) any {
		for round := 0; round < 50; round++ {
			task.Call(func(ft *Task) {
				for i := 0; i < 8; i++ {
					ft.Spawn(func(*Task) { total.Add(1) })
				}
				ft.Sync() // parks; may resume on another worker
			})
			// Caller spawns immediately after the frame returns.
			task.Spawn(func(*Task) { total.Add(1) })
			task.Sync()
		}
		return nil
	})
	if got := total.Load(); got != 50*9 {
		t.Fatalf("spawn count = %d, want %d", got, 50*9)
	}
}

// TestCallCancellationUnwind: a deadline firing while the goroutine is
// inside a called frame must join the frame's outstanding children
// before unwinding past it, and the future must carry the deadline
// cause. The child's completion marker proves it was joined, not
// abandoned mid-flight.
func TestCallCancellationUnwind(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	var childJoined atomic.Bool
	var reachedAfter atomic.Bool
	f := rt.SubmitFutureWithDeadline(0, 5*time.Millisecond, func(task *Task) any {
		task.Call(func(ft *Task) {
			ft.Spawn(func(ct *Task) {
				deadline := time.Now().Add(2 * time.Second)
				for ct.Err() == nil && time.Now().Before(deadline) {
					time.Sleep(100 * time.Microsecond)
				}
				childJoined.Store(true)
			})
			for { // spin at scheduling points until the deadline unwinds us
				ft.Yield()
			}
		})
		reachedAfter.Store(true)
		return nil
	})
	f.Wait()
	if !errors.Is(f.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", f.Err())
	}
	if !childJoined.Load() {
		t.Fatal("frame's child was not joined during the unwind")
	}
	if reachedAfter.Load() {
		t.Fatal("unwind stopped at the called frame instead of propagating")
	}
}

// TestCallFrameReuseStress hammers the frame pool from many concurrent
// task trees (run with -race): recycled frames must never leak a join
// or a worker pointer between uses.
func TestCallFrameReuseStress(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 4, Levels: 2, Policy: Prompt})
	var total atomic.Int64
	futs := make([]*Future, 8)
	for i := range futs {
		futs[i] = rt.SubmitFuture(i%2, func(task *Task) any {
			for round := 0; round < 200; round++ {
				task.Call(func(ft *Task) {
					ft.Spawn(func(*Task) { total.Add(1) })
					ft.Call(func(ft2 *Task) {
						ft2.Spawn(func(*Task) { total.Add(1) })
						ft2.Sync()
					})
					ft.Sync()
				})
			}
			return nil
		})
	}
	for _, f := range futs {
		f.Wait()
	}
	if got := total.Load(); got != 8*200*2 {
		t.Fatalf("total = %d, want %d", got, 8*200*2)
	}
}
