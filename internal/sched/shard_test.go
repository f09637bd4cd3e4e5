package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolShardsDerivation pins the Config.PoolShards contract: 0
// means 1 (the paper's centralized layout) at every worker count,
// explicit values round up to a power of two and are capped, and a
// negative value is rejected.
func TestPoolShardsDerivation(t *testing.T) {
	cases := []struct {
		workers, poolShards, want int
	}{
		{1, 0, 1},
		{8, 0, 1},    // no dependence on Workers
		{8, 1, 1},    // the same layout, spelled out
		{2, 3, 4},    // explicit values round up to a power of two
		{1, 8, 8},    // more shards than workers is allowed
		{1, 100, 64}, // capped at maxPoolShards
	}
	for _, c := range cases {
		rt := newTestRuntime(t, Config{Workers: c.workers, PoolShards: c.poolShards, Levels: 1, Policy: Prompt})
		pool := rt.pol.(*promptPolicy).pool
		if got := pool.shardCount(); got != c.want {
			t.Errorf("Workers=%d PoolShards=%d: shardCount=%d, want %d",
				c.workers, c.poolShards, got, c.want)
		}
		if sh, _, _ := rt.ShardStats(); sh != c.want {
			t.Errorf("Workers=%d PoolShards=%d: ShardStats shards=%d, want %d",
				c.workers, c.poolShards, sh, c.want)
		}
		rt.Close()
	}
	if _, err := New(Config{Workers: 1, PoolShards: -1, Levels: 1, Policy: Prompt}); err == nil {
		t.Fatal("negative PoolShards accepted")
	}
}

// TestShardHomeAssignment pins the home-shard rule: worker enqueuers
// map to their id folded onto the shard space; non-worker enqueuers
// (I/O completions, external submissions) rotate round-robin over all
// shards so resumption load cannot hot-spot one shard.
func TestShardHomeAssignment(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 4, PoolShards: 4, Levels: 1, Policy: Prompt})
	pool := rt.pol.(*promptPolicy).pool
	if n := pool.shardCount(); n != 4 {
		t.Fatalf("shardCount = %d, want 4", n)
	}
	for _, w := range rt.workers {
		if got, want := pool.homeFor(w), w.id&3; got != want {
			t.Errorf("homeFor(worker %d) = %d, want %d", w.id, got, want)
		}
	}
	seen := make(map[int]int)
	for i := 0; i < 8; i++ {
		seen[pool.homeFor(nil)]++
	}
	for s := 0; s < 4; s++ {
		if seen[s] != 2 {
			t.Fatalf("round-robin external homes %v, want exactly 2 per shard", seen)
		}
	}
}

// TestShardedExternalSpread: with every worker pinned by a hog,
// external submissions must land round-robin across shards, and the
// aggregate snapshot depths must equal the per-shard sum — existing
// consumers of the aggregate fields keep working under sharding.
func TestShardedExternalSpread(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 4, PoolShards: 4, Levels: 2, Policy: Prompt})

	var hogsStarted atomic.Int32
	var release atomic.Bool
	var hogs []*Future
	for i := 0; i < 4; i++ {
		hogs = append(hogs, rt.SubmitFuture(0, func(task *Task) any {
			hogsStarted.Add(1)
			for !release.Load() {
				task.Yield()
			}
			return nil
		}))
	}
	for hogsStarted.Load() < 4 {
		time.Sleep(100 * time.Microsecond)
	}

	// Lower-priority submissions queue up behind the hogs; the
	// submitting goroutine is not a worker, so each takes the next
	// round-robin home shard.
	const n = 8
	var futs []*Future
	for i := 0; i < n; i++ {
		futs = append(futs, rt.SubmitFuture(1, func(task *Task) any { return nil }))
	}

	pool := rt.pol.(*promptPolicy).pool
	depths := pool.shardDepths(1)
	if len(depths) != 4 {
		t.Fatalf("shardDepths returned %d shards, want 4", len(depths))
	}
	total := 0
	for s, d := range depths {
		total += d.Regular
		if d.Regular == 0 {
			t.Errorf("shard %d received no external submissions: %+v", s, depths)
		}
	}
	if total != n {
		t.Errorf("per-shard regular depths sum to %d, want %d (%+v)", total, n, depths)
	}
	if reg, _ := pool.depths(1); reg != total {
		t.Errorf("aggregate depths() = %d, per-shard sum = %d", reg, total)
	}

	snap := rt.Snapshot()
	if snap.PoolShards != 4 {
		t.Errorf("Snapshot.PoolShards = %d, want 4", snap.PoolShards)
	}
	if got := len(snap.PerLevel[1].Shards); got != 4 {
		t.Errorf("Snapshot PerLevel[1].Shards has %d entries, want 4", got)
	}

	release.Store(true)
	for _, f := range append(hogs, futs...) {
		f.Wait()
	}
}

// TestShardedBitfieldNeverUnderReports is the sharding analogue of the
// bitfield conservation property: under a churning multi-worker
// workload, "level bit clear AND some shard holds a deque" may exist
// only transiently (the enqueue→Set window); if an observation of that
// state survives repeated re-probes, a shard's population has escaped
// the bitfield and promptness is broken. Run with -race in CI.
func TestShardedBitfieldNeverUnderReports(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 4, PoolShards: 4, Levels: 2, Policy: Prompt})
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
				// Suspicious state: re-probe. The enqueue→Set window and
				// thief-held migrations self-heal in microseconds; 50ms of
				// persistence means the bit was lost.
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
					case violation <- pool.shardDebug(lvl):
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

// TestShardedMatchesCentralized runs the same fork-join workload under
// PoolShards=1 (the paper's layout) and a four-shard layout and
// checks both compute the same result — relaxed selection reorders
// same-level work but must not lose or duplicate any of it.
func TestShardedMatchesCentralized(t *testing.T) {
	run := func(poolShards int) int64 {
		rt := newTestRuntime(t, Config{Workers: 4, PoolShards: poolShards, Levels: 2, Policy: Prompt})
		defer rt.Close()
		var sum atomic.Int64
		var futs []*Future
		for r := 0; r < 16; r++ {
			lvl := r % 2
			futs = append(futs, rt.SubmitFuture(lvl, func(task *Task) any {
				sum.Add(int64(fib(task, 9)))
				return nil
			}))
		}
		for _, f := range futs {
			f.Wait()
		}
		return sum.Load()
	}
	central, sharded := run(1), run(4)
	if central != sharded {
		t.Fatalf("centralized sum %d != sharded sum %d", central, sharded)
	}
	if want := int64(16 * 34); central != want { // fib(9)=34
		t.Fatalf("sum = %d, want %d", central, want)
	}
}
