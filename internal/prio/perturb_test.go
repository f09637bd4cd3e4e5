//go:build icilk_debug

package prio

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icilk/internal/invariant/perturb"
)

// TestPerturbLostWakeup is the lost-wakeup model test for the
// sleep/wake gate: N sleepers loop through WaitNonZero while stormers
// race Set / Clear / DoubleCheckClear with seeded perturbation
// stretching the windows between the bit operations and the
// condition-variable broadcast. The invariant under test is the
// paper's wake-up contract — no sleeper may remain blocked while the
// field is stably non-zero (every zero→non-zero Set broadcasts), and
// Stop never strands a worker.
func TestPerturbLostWakeup(t *testing.T) {
	for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			perturb.Enable(seed)
			defer perturb.Disable()

			b := New()
			const nSleepers = 4
			var wakeups atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < nSleepers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if _, _, ok := b.WaitNonZero(nil); !ok {
							return // stopped
						}
						wakeups.Add(1)
						// Act like a thief that found the pool empty:
						// clear the level it woke for via the
						// double-check protocol, re-widening the race
						// with the stormers' Sets.
						perturb.At(perturb.Check)
						if lvl, ok := b.Highest(); ok {
							b.DoubleCheckClear(lvl, func() bool { return true })
						}
					}
				}()
			}

			const stormers = 3
			const rounds = 250
			var swg sync.WaitGroup
			for s := 0; s < stormers; s++ {
				swg.Add(1)
				go func(id int) {
					defer swg.Done()
					for r := 0; r < rounds; r++ {
						lvl := (id*11 + r) % MaxLevels
						b.Set(lvl)
						perturb.At(perturb.Enqueue)
						if r%2 == 0 {
							// A thief's empty-pool probe, sometimes
							// discovering late work (empty=false → reset).
							b.DoubleCheckClear(lvl, func() bool { return r%4 != 0 })
						}
						perturb.At(perturb.Steal)
						b.CheckNoSleeperStranded()
					}
				}(s)
			}
			swg.Wait()

			// End in a stably non-zero state: the detector must see every
			// sleeper leave the gate.
			b.Set(7)
			b.CheckNoSleeperStranded()

			b.Stop()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("Stop stranded a sleeper (seed %#x, %d wakeups)", seed, wakeups.Load())
			}
		})
	}
}

// TestPerturbBatchedSetsLoseNoWake is the lost-wakeup model test for
// back-to-back Sets, as a poller pass completing several futures
// issues them: in every other round a stormer Sets two levels in a
// row, so a Set that may take the field from zero is followed at once
// by one that finds it non-zero. The invariant is the paper's: no
// sleeper stays blocked while the field is stably non-zero.
func TestPerturbBatchedSetsLoseNoWake(t *testing.T) {
	for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			perturb.Enable(seed)
			defer perturb.Disable()

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

			const stormers = 3
			const rounds = 200
			var swg sync.WaitGroup
			for s := 0; s < stormers; s++ {
				swg.Add(1)
				go func(id int) {
					defer swg.Done()
					for r := 0; r < rounds; r++ {
						lvl := (id*7 + r) % MaxLevels
						b.Set(lvl)
						if r%2 == 0 {
							// A completion batch: a second Set in the same pass.
							b.Set((lvl + 1) % MaxLevels)
						}
						if r%3 == 0 {
							b.DoubleCheckClear(lvl, func() bool { return r%5 != 0 })
						}
						b.CheckNoSleeperStranded()
					}
				}(s)
			}
			swg.Wait()

			// End stably non-zero: every sleeper must leave the gate.
			b.Set(11)
			b.CheckNoSleeperStranded()

			b.Stop()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("Stop stranded a sleeper (seed %#x)", seed)
			}
		})
	}
}
