//go:build icilk_debug

package sched

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"icilk/internal/invariant/perturb"
)

// waitAll waits for every future with a shared deadline; a future
// still pending at the deadline means work was lost (a stranded deque,
// a lost level bit, a lost wake-up) and fails the test.
func waitAll(t *testing.T, futs []*Future, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for i, f := range futs {
		select {
		case <-f.WaitChan():
		case <-deadline:
			t.Fatalf("future %d of %d never completed (seed %#x): scheduler lost work",
				i, len(futs), perturb.Seed())
		}
	}
}

// TestPerturbMixedWorkload runs a fork-join + cross-level-future +
// external-submission mix under every policy with seeded perturbation
// at all scheduling points. The assertions doing the work are the ones
// armed by this build: deque transition legality, token-holder
// discipline, join-counter bounds, bitfield stability, recycled
// contexts never resumed bodiless.
func TestPerturbMixedWorkload(t *testing.T) {
	for _, pol := range allPolicies {
		for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
			t.Run(fmt.Sprintf("%v/seed=%#x", pol, seed), func(t *testing.T) {
				rt := newTestRuntime(t, Config{Workers: 4, Levels: 3, Policy: pol})
				perturb.Enable(seed)
				defer perturb.Disable()

				var sum atomic.Int64
				var futs []*Future
				for r := 0; r < 12; r++ {
					lvl := r % 3
					futs = append(futs, rt.SubmitFuture(lvl, func(task *Task) any {
						v := fib(task, 8)
						// Cross-level future: toss a routine to another
						// level and join it with get.
						other := (task.Level() + 1) % 3
						f := task.FutCreate(other, func(ct *Task) any {
							return fib(ct, 6)
						})
						v += f.Get(task).(int)
						sum.Add(int64(v))
						return v
					}))
				}
				waitAll(t, futs, 2*time.Minute)
				want := int64(12 * (21 + 8)) // fib(8)=21, fib(6)=8
				if got := sum.Load(); got != want {
					t.Fatalf("workload sum = %d, want %d", got, want)
				}
			})
		}
	}
}

// TestPerturbBitfieldStabilityUnderMigration is the probe for the
// centralPool.empty double-check window (a thief's empty() reads the
// mugging and regular queue sizes non-atomically, and abandoned deques
// migrate between those queues while the probe runs): low-priority
// churners keep abandoning their deques to the mugging queue as
// high-priority blips arrive, with perturbation stretching the
// enqueue→Set gap that DoubleCheckClear races against. If any
// interleaving could clear a level bit permanently while its pool
// held a deque, the workload would strand work and time out — and the
// findWork stability assertion would fail first.
func TestPerturbBitfieldStabilityUnderMigration(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
			t.Run(fmt.Sprintf("workers=%d/seed=%#x", workers, seed), func(t *testing.T) {
				rt := newTestRuntime(t, Config{Workers: workers, Levels: 2, Policy: Prompt})
				perturb.Enable(seed)
				defer perturb.Disable()

				var futs []*Future
				for r := 0; r < 30; r++ {
					// Low-priority churners: spawn work and hit scheduling
					// points often, so level-0 blips force abandons into the
					// mugging queue.
					for i := 0; i < 3; i++ {
						futs = append(futs, rt.SubmitFuture(1, func(task *Task) any {
							for k := 0; k < 10; k++ {
								task.Spawn(func(ct *Task) { ct.Yield() })
								task.Yield()
							}
							task.Sync()
							return nil
						}))
					}
					// High-priority blip that triggers the churners' switch
					// checks.
					futs = append(futs, rt.SubmitFuture(0, func(task *Task) any {
						return fib(task, 5)
					}))
				}
				waitAll(t, futs, 2*time.Minute)
			})
		}
	}
}

// TestPerturbIOFutures exercises the suspend/resume path: tasks Get on
// externally-completed futures while a completer goroutine races their
// suspension, with perturbation stretching the Suspend→park and
// complete→resume windows on both sides.
func TestPerturbIOFutures(t *testing.T) {
	for _, pol := range []PolicyKind{Prompt, Adaptive} {
		for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
			t.Run(fmt.Sprintf("%v/seed=%#x", pol, seed), func(t *testing.T) {
				rt := newTestRuntime(t, Config{Workers: 4, Levels: 2, Policy: pol})
				perturb.Enable(seed)
				defer perturb.Disable()

				const requests = 24
				pending := make(chan *Future, requests)
				completerDone := make(chan struct{})
				go func() {
					defer close(completerDone)
					for f := range pending {
						f.Complete(7)
					}
				}()

				var futs []*Future
				var sum atomic.Int64
				for i := 0; i < requests; i++ {
					lvl := i % 2
					futs = append(futs, rt.SubmitFuture(lvl, func(task *Task) any {
						iof := task.Runtime().NewIOFuture()
						pending <- iof
						v := iof.Get(task).(int)
						v += fib(task, 5)
						sum.Add(int64(v))
						return nil
					}))
				}
				waitAll(t, futs, 2*time.Minute)
				close(pending)
				<-completerDone
				if got, want := sum.Load(), int64(requests*(7+5)); got != want {
					t.Fatalf("sum = %d, want %d", got, want)
				}
			})
		}
	}
}

// TestPerturbSubmitBatchLosesNoWake drives I/O-future completions
// through SubmitBatch — the runtime path a shared-poller pass takes —
// in batches of four, while perturbation stretches the scheduling
// points of the workers the completions wake and re-suspend. A lost
// wakeup leaves a worker asleep with completed work pending and the
// run deadlocks.
func TestPerturbSubmitBatchLosesNoWake(t *testing.T) {
	for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Workers: 2, Levels: 2, Policy: Prompt})
			perturb.Enable(seed)
			defer perturb.Disable()

			const requests = 32
			const batchSize = 4
			pending := make(chan *Future, requests)
			completerDone := make(chan struct{})
			go func() {
				defer close(completerDone)
				batch := make([]func(), 0, batchSize)
				deliver := func() {
					rt.SubmitBatch(batch)
					batch = batch[:0]
				}
				for f := range pending {
					batch = append(batch, func() { f.Complete(3) })
					if len(batch) == batchSize {
						deliver()
					}
				}
				deliver()
			}()

			var futs []*Future
			var sum atomic.Int64
			for i := 0; i < requests; i++ {
				lvl := i % 2
				futs = append(futs, rt.SubmitFuture(lvl, func(task *Task) any {
					iof := task.Runtime().NewIOFuture()
					pending <- iof
					v := iof.Get(task).(int)
					sum.Add(int64(v + fib(task, 4)))
					return nil
				}))
			}
			waitAll(t, futs, 2*time.Minute)
			close(pending)
			<-completerDone
			if got, want := sum.Load(), int64(requests*(3+3)); got != want { // fib(4)=3
				t.Fatalf("sum = %d, want %d", got, want)
			}
		})
	}
}
