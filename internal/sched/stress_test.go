package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"icilk/internal/xrand"
)

// TestStressMixedWorkload hammers every policy with a seeded random
// mixture of spawns, same-level futures, cross-level futures, I/O
// futures, and priority switches, then checks global
// invariants: every future completes, inflight drains to zero, and
// the non-empty-deque gauges return to zero.
func TestStressMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, pk := range allPolicies {
		pk := pk
		t.Run(pk.String(), func(t *testing.T) {
			const levels = 4
			rt := newTestRuntime(t, Config{Workers: 4, Levels: levels, Policy: pk})
			var work atomic.Int64

			rng := xrand.New(uint64(0x57e55 + int(pk)))
			const roots = 120
			futs := make([]*Future, 0, roots)
			for i := 0; i < roots; i++ {
				seed := rng.Uint64()
				level := int(seed % levels)
				futs = append(futs, rt.SubmitFuture(level, func(task *Task) any {
					stressTask(task, rt, &work, xrand.New(seed), 3)
					return nil
				}))
			}
			for _, f := range futs {
				f.Wait()
			}
			if got := rt.Inflight(); got != 0 {
				t.Fatalf("inflight = %d after drain", got)
			}
			deadline := time.Now().Add(2 * time.Second)
			for l := 0; l < levels; l++ {
				for rt.NonEmptyDeques(l) != 0 {
					if time.Now().After(deadline) {
						t.Fatalf("level %d gauge stuck at %d", l, rt.NonEmptyDeques(l))
					}
					time.Sleep(time.Millisecond)
				}
			}
			if work.Load() == 0 {
				t.Fatal("no work recorded")
			}
		})
	}
}

// stressTask performs a random tree of scheduler operations.
func stressTask(task *Task, rt *Runtime, work *atomic.Int64, rng *xrand.Rand, depth int) {
	work.Add(1)
	if depth == 0 {
		return
	}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0: // spawn subtree
			childSeed := rng.Uint64()
			task.Spawn(func(ct *Task) {
				stressTask(ct, rt, work, xrand.New(childSeed), depth-1)
			})
		case 1: // same-level future
			seed := rng.Uint64()
			f := task.FutCreate(task.Level(), func(ct *Task) any {
				stressTask(ct, rt, work, xrand.New(seed), depth-1)
				return depth
			})
			if f.Get(task).(int) != depth {
				panic("future value corrupted")
			}
		case 2: // cross-level future (may invert; detector tolerated)
			seed := rng.Uint64()
			lvl := rng.Intn(rt.Levels())
			f := task.FutCreate(lvl, func(ct *Task) any {
				stressTask(ct, rt, work, xrand.New(seed), depth-1)
				return lvl
			})
			if f.Get(task).(int) != lvl {
				panic("future value corrupted")
			}
		case 3: // I/O future completed by a timer
			iof := rt.NewIOFuture()
			time.AfterFunc(time.Duration(rng.Intn(300))*time.Microsecond, func() {
				iof.Complete("io")
			})
			if iof.Get(task).(string) != "io" {
				panic("io value corrupted")
			}
		case 4: // explicit scheduling point
			task.Yield()
		}
	}
	task.Sync()
}

// TestDeepSpawnChain exercises very deep nesting (long spawn chains
// stress the pop-bottom resume path and join bookkeeping).
func TestDeepSpawnChain(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	var depthReached atomic.Int64
	var chain func(task *Task, d int)
	chain = func(task *Task, d int) {
		if d == 0 {
			depthReached.Store(1)
			return
		}
		task.Spawn(func(ct *Task) { chain(ct, d-1) })
		task.Sync()
	}
	rt.Run(func(task *Task) any { chain(task, 500); return nil })
	if depthReached.Load() != 1 {
		t.Fatal("deep chain did not bottom out")
	}
}

// TestManyWaitersOnOneFuture checks the one-to-many resumable fan-out
// (many deques suspended on the same future).
func TestManyWaitersOnOneFuture(t *testing.T) {
	for _, pk := range allPolicies {
		pk := pk
		t.Run(pk.String(), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Workers: 3, Levels: 2, Policy: pk})
			gate := rt.NewIOFuture()
			const waiters = 64
			futs := make([]*Future, waiters)
			for i := range futs {
				i := i
				futs[i] = rt.SubmitFuture(i%2, func(task *Task) any {
					return gate.Get(task).(int) + i
				})
			}
			time.Sleep(3 * time.Millisecond)
			gate.Complete(100)
			for i, f := range futs {
				if got := f.Wait().(int); got != 100+i {
					t.Fatalf("waiter %d got %d", i, got)
				}
			}
		})
	}
}

// TestGetAfterCompletionIsFast covers the already-done fast path.
func TestGetAfterCompletionIsFast(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	got := rt.Run(func(task *Task) any {
		f := task.FutCreate(0, func(*Task) any { return 7 })
		a := f.Get(task).(int) // may suspend
		b := f.Get(task).(int) // fast path
		return a + b
	}).(int)
	if got != 14 {
		t.Fatalf("got %d", got)
	}
}

// TestStealableSuspendedDeque builds the paper's "stealable suspended
// deque": a task spawns (making its continuation stealable), the
// child blocks on a get, and another worker must steal the suspended
// deque's frame to finish the computation.
func TestStealableSuspendedDeque(t *testing.T) {
	for _, pk := range allPolicies {
		pk := pk
		t.Run(pk.String(), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: pk})
			gate := rt.NewIOFuture()
			var contRan atomic.Bool
			f := rt.SubmitFuture(0, func(task *Task) any {
				task.Spawn(func(ct *Task) {
					gate.Get(ct) // suspends the WHOLE deque; the parent
					// continuation below is now a stealable frame.
				})
				contRan.Store(true) // runs only if someone steals it
				task.Sync()
				return "done"
			})
			deadline := time.Now().Add(2 * time.Second)
			for !contRan.Load() {
				if time.Now().After(deadline) {
					t.Fatal("stealable frame of a suspended deque never stolen")
				}
				time.Sleep(100 * time.Microsecond)
			}
			gate.Complete(nil)
			if f.Wait().(string) != "done" {
				t.Fatal("wrong result")
			}
		})
	}
}
