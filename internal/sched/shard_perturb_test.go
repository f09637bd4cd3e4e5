//go:build icilk_debug

package sched

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"icilk/internal/invariant/perturb"
)

// TestPerturbShardedPoolStability drives the sharded centralized pool
// (PoolShards=4) through the shard-specific perturbation points —
// Enqueue (the shard-insert→bit-Set gap), ShardSelect (the
// stale-sample window between depth sampling and the pop), ShardSweep
// (the all-shard scan that keeps DoubleCheckClear exact) — under the
// CI seed matrix. Churners abandoning into per-shard mugging queues
// plus high-priority blips force cross-shard migration; a lost level
// bit or a shard invisible to the sweep strands work and times out,
// and the findWork stability assertion (armed by this build) fails
// first with the per-shard ticket dump.
func TestPerturbShardedPoolStability(t *testing.T) {
	for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Workers: 4, PoolShards: 4, Levels: 2, Policy: Prompt})
			if got := rt.pol.(*promptPolicy).pool.shardCount(); got != 4 {
				t.Fatalf("shardCount = %d, want 4 (test must run sharded)", got)
			}
			perturb.Enable(seed)
			defer perturb.Disable()

			var sum atomic.Int64
			var futs []*Future
			for r := 0; r < 20; r++ {
				// Low-priority churners: spawn/yield so level-0 blips force
				// abandons, spreading deques over every shard's mugging
				// queue and keeping thieves sampling and sweeping.
				for i := 0; i < 3; i++ {
					futs = append(futs, rt.SubmitFuture(1, func(task *Task) any {
						for k := 0; k < 8; k++ {
							task.Spawn(func(ct *Task) { ct.Yield() })
							task.Yield()
						}
						task.Sync()
						return nil
					}))
				}
				// High-priority blip: triggers the churners' switch checks
				// and exercises the empty-level sweep when it drains.
				futs = append(futs, rt.SubmitFuture(0, func(task *Task) any {
					v := fib(task, 6)
					sum.Add(int64(v))
					return v
				}))
			}
			waitAll(t, futs, 2*time.Minute)
			if got, want := sum.Load(), int64(20*8); got != want { // fib(6)=8
				t.Fatalf("blip sum = %d, want %d (seed %#x)", got, want, perturb.Seed())
			}
		})
	}
}

// TestPerturbShardedCentralizedAblation re-runs the migration stress
// with PoolShards=1 under perturbation: it must reproduce the paper's
// centralized behavior exactly (single shard, no relaxed selection),
// so the shard perturbation points degenerate to no-ops and the
// original bitfield protocol carries the test alone.
func TestPerturbShardedCentralizedAblation(t *testing.T) {
	for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Workers: 4, PoolShards: 1, Levels: 2, Policy: Prompt})
			if got := rt.pol.(*promptPolicy).pool.shardCount(); got != 1 {
				t.Fatalf("shardCount = %d, want 1", got)
			}
			perturb.Enable(seed)
			defer perturb.Disable()

			var futs []*Future
			for r := 0; r < 15; r++ {
				for i := 0; i < 3; i++ {
					futs = append(futs, rt.SubmitFuture(1, func(task *Task) any {
						for k := 0; k < 8; k++ {
							task.Spawn(func(ct *Task) { ct.Yield() })
							task.Yield()
						}
						task.Sync()
						return nil
					}))
				}
				futs = append(futs, rt.SubmitFuture(0, func(task *Task) any {
					return fib(task, 5)
				}))
			}
			waitAll(t, futs, 2*time.Minute)
		})
	}
}
