package icilk

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"icilk/internal/invariant"
	"icilk/internal/xrand"
)

// Tests for the demand-driven loop driver (forRec/reduceRec): a loop
// spawns only at a chunk boundary that finds its deque with nothing for
// a thief. "Spawns" below is WasteReport().Spawns, the same counter
// /metrics serves as icilk_spawns_total.

// spinUntil busy-waits (yielding the processor, never the worker) until
// cond holds, reporting false if it has not within the limit.
func spinUntil(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// TestLoopSpawnsIndependentOfChunkCount: with one worker there is no
// thief, so a loop's spawns and allocations do not depend on how many
// chunks it has — 16 or 1024 at the same grain. The spawn count is the
// scheduler's own and always compared; the allocation count is the
// whole process's, and -race and icilk_debug builds allocate beside the
// loop, so there it is not.
func TestLoopSpawnsIndependentOfChunkCount(t *testing.T) {
	rt := newRT(t, Config{Workers: 1, Levels: 1})
	const grain = 64
	countAllocs := !invariant.Race && !invariant.Enabled
	data := make([]int64, 1<<16)
	body := func(i int) { data[i]++ }
	leaf := func(i int) int64 { return data[i] }
	add := func(a, b int64) int64 { return a + b }
	rt.Run(func(task *Task) any {
		measure := func(loop func(n int)) (spawns [2]int64, allocs [2]float64) {
			for k, n := range []int{1 << 10, 1 << 16} {
				loop(n) // warm the called-frame pool
				before := rt.WasteReport().Spawns
				loop(n)
				spawns[k] = rt.WasteReport().Spawns - before
				if !countAllocs {
					continue
				}
				// An allocation of another goroutine lands in some samples,
				// the loop's own in every one, so the least of five is the
				// loop's.
				allocs[k] = testing.AllocsPerRun(5, func() { loop(n) })
				for s := 1; s < 5; s++ {
					allocs[k] = min(allocs[k], testing.AllocsPerRun(5, func() { loop(n) }))
				}
			}
			return
		}
		for name, loop := range map[string]func(n int){
			"For":    func(n int) { For(task, 0, n, grain, body) },
			"Reduce": func(n int) { Reduce(task, 0, n, grain, 0, leaf, add) },
		} {
			spawns, allocs := measure(loop)
			if spawns[0] != spawns[1] || allocs[1] > allocs[0]+0.05 {
				t.Errorf("%s: %d chunks cost %d spawns / %.0f allocs, %d chunks cost %d / %.0f; the cost must not follow the chunk count",
					name, (1<<10)/grain, spawns[0], allocs[0], (1<<16)/grain, spawns[1], allocs[1])
			}
		}
		return nil
	})
}

// TestLoopFeedsThief is the demand half: the body needs two tasks inside
// it at once before anyone may leave, so each loop completes only if the
// frame that finds its deque empty (at the first boundary, and again
// after every steal) pushes something for the second worker to take.
func TestLoopFeedsThief(t *testing.T) {
	rt := newRT(t, Config{Workers: 2, Levels: 1})
	for round := 0; round < 20; round++ {
		var inside atomic.Int32
		var met, timedOut atomic.Bool
		rt.Run(func(task *Task) any {
			For(task, 0, 64, 1, func(int) {
				if inside.Add(1) >= 2 {
					met.Store(true)
				}
				if !spinUntil(5*time.Second, met.Load) {
					timedOut.Store(true)
					met.Store(true) // let the loop drain
				}
				inside.Add(-1)
			})
			return nil
		})
		if timedOut.Load() {
			t.Fatalf("round %d: the loop ran on one worker for 5 s while the other found nothing to steal", round)
		}
	}
}

// TestLoopSplitAllocFree pins what a split costs the heap: nothing —
// For's forSplit and Reduce's reduceSplit records come from the task
// context and go back to it after the sync. Demand is forced as in
// TestLoopFeedsThief, but at every index: a body returns only once it
// has met another, so each four-index loop is stolen from once and
// splits three times. The thief's fresh deque, the pool queue's
// segments and the task contexts are all recycled too, and a steal does
// not cost the victim's deque its capacity.
func TestLoopSplitAllocFree(t *testing.T) {
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation accounting differs under -race and icilk_debug")
	}
	rt := newRT(t, Config{Workers: 2, Levels: 1})
	const n, rounds = 4, 256 // n even: the bodies leave in pairs

	// meet is a two-party barrier that trips over and over.
	var arrived atomic.Int32
	var gen atomic.Int64
	var gaveUp atomic.Bool
	meet := func() {
		g := gen.Load()
		if arrived.Add(1) == 2 {
			arrived.Store(0)
			gen.Add(1)
			return
		}
		if !spinUntil(5*time.Second, func() bool { return gen.Load() != g || gaveUp.Load() }) {
			gaveUp.Store(true) // let the loops drain
		}
	}
	body := func(int) { meet() }
	leaf := func(int) int64 { meet(); return 1 }
	add := func(a, b int64) int64 { return a + b }
	for name, loop := range map[string]func(task *Task){
		"For": func(task *Task) { For(task, 0, n, 1, body) },
		"Reduce": func(task *Task) {
			if sum := Reduce(task, 0, n, 1, 0, leaf, add); sum != n {
				t.Errorf("Reduce = %d, want %d", sum, n)
			}
		},
	} {
		// One root for warm-up and every window: Submit's own future and
		// context stay out of the count.
		rt.Run(func(task *Task) any {
			window := func() (mallocs uint64, splits int64) {
				var m0, m1 runtime.MemStats
				s0 := rt.WasteReport().Spawns
				runtime.ReadMemStats(&m0)
				for r := 0; r < rounds; r++ {
					loop(task)
				}
				runtime.ReadMemStats(&m1)
				return m1.Mallocs - m0.Mallocs, rt.WasteReport().Spawns - s0
			}
			window() // warms the free lists
			// The counter is the whole process's; the split's own cost is
			// in every window, so the smallest of three is reported.
			mallocs, splits := window()
			least := float64(mallocs) / float64(splits)
			for w := 1; w < 3; w++ {
				mallocs, splits = window()
				least = min(least, float64(mallocs)/float64(splits))
			}
			if splits < 2*rounds {
				t.Errorf("%s: %d loops split %d times: the barrier did not force a steal in each", name, rounds, splits)
			} else if least > 0.05 {
				t.Errorf("%s: %.2f heap objects per split (%d splits), want 0", name, least, splits)
			}
			return nil
		})
		if gaveUp.Load() {
			t.Fatalf("%s: a body waited 5 s for the other worker to join it", name)
		}
	}
}

// checkLoopsUnderSteals runs an exactly-once For and a string-concat
// Reduce whose bodies stall at seeded-random indices: thieves empty the
// stalled worker's deque meanwhile, so the loops split at random chunk
// boundaries. A lost, doubled or reordered piece shows in the result.
func checkLoopsUnderSteals(t *testing.T, rt *Runtime, seed uint64) {
	t.Helper()
	const n, grain = 600, 4
	rng := xrand.New(seed)
	stall := make([]bool, n)
	for i := range stall {
		stall[i] = rng.Uint64()%16 == 0
	}
	pause := func(i int) {
		if stall[i] {
			spinUntil(20*time.Microsecond, func() bool { return false })
		}
	}
	var want strings.Builder
	for i := 0; i < n; i++ {
		want.WriteString(strconv.Itoa(i) + ",")
	}

	before := rt.WasteReport().Spawns
	counts := make([]atomic.Int32, n)
	got := rt.Run(func(task *Task) any {
		For(task, 0, n, grain, func(i int) {
			pause(i)
			counts[i].Add(1)
		})
		return Reduce(task, 0, n, grain, "",
			func(i int) string {
				pause(i)
				return strconv.Itoa(i) + ","
			},
			func(a, b string) string { return a + b })
	}).(string)
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("For: index %d ran %d times (seed %#x)", i, c, seed)
		}
	}
	if got != want.String() {
		t.Fatalf("Reduce combined out of index order (seed %#x):\n got %q\nwant %q", seed, got, want.String())
	}
	if rt.Workers() > 1 && rt.WasteReport().Spawns == before {
		t.Fatalf("neither loop ever split on a %d-worker runtime (seed %#x)", rt.Workers(), seed)
	}
}

func TestLoopsExactlyOnceAndOrderedUnderSteals(t *testing.T) {
	rt := newRT(t, Config{Workers: 4, Levels: 1})
	for seed := uint64(1); seed <= 8; seed++ {
		checkLoopsUnderSteals(t, rt, seed)
	}
}

// TestLoopChunkBoundaryIsPromptnessCheck: one worker, a level-1 For, a
// level-0 request submitted while the loop is inside its first chunk.
// The worker must leave the loop at the very next chunk boundary, so no
// later index — let alone the loop's end — may run before the request
// has.
func TestLoopChunkBoundaryIsPromptnessCheck(t *testing.T) {
	rt := newRT(t, Config{Workers: 1, Levels: 2})
	const n, grain = 64, 4
	started := make(chan struct{})
	var submitted, hiDone, ranPastBoundary, timedOut atomic.Bool
	loop := rt.Submit(1, func(task *Task) any {
		For(task, 0, n, grain, func(i int) {
			switch {
			case i == 0:
				close(started)
				if !spinUntil(5*time.Second, submitted.Load) {
					timedOut.Store(true)
				}
			case i >= grain && !hiDone.Load():
				ranPastBoundary.Store(true)
			}
		})
		return nil
	})
	<-started
	hi := rt.Submit(0, func(*Task) any { hiDone.Store(true); return nil })
	submitted.Store(true)
	hi.Wait()
	loop.Wait()
	if timedOut.Load() {
		t.Fatal("the submitter never got to run")
	}
	if ranPastBoundary.Load() {
		t.Fatal("the loop crossed a chunk boundary with level-0 work pending and carried on")
	}
}

// TestLoopLetsPlainGoroutinesRun: with every worker inside a long loop
// that hardly ever spawns, nothing parks, so the chunk boundary's
// Gosched is the only way a plain goroutine (a timer, an accept loop, a
// load generator) gets a processor before the next rare park or async
// preemption.
func TestLoopLetsPlainGoroutinesRun(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	rt := newRT(t, Config{Workers: workers, Levels: 1})
	var stop atomic.Bool
	var passes, sink atomic.Int64
	loop := rt.Submit(0, func(task *Task) any {
		for !stop.Load() {
			// Tens of milliseconds per pass and a few dozen spawns, all
			// near its start and end: in between, nothing parks.
			For(task, 0, 1<<22, 256, func(i int) {
				x := float64(i)
				for k := 0; k < 20; k++ {
					x = x*1.0000001 + 1
				}
				if x < 0 {
					sink.Add(1)
				}
			})
			passes.Add(1)
		}
		return nil
	})
	if !spinUntil(10*time.Second, func() bool { return passes.Load() > 0 }) {
		t.Fatal("loop never completed a pass")
	}
	const period = 100 * time.Microsecond
	late := make([]time.Duration, 201)
	for i := range late {
		t0 := time.Now()
		time.Sleep(period)
		late[i] = time.Since(t0) - period
	}
	stop.Store(true)
	loop.Wait()
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	// Measured here: p50 8 µs / p90 13 µs; with the Gosched removed,
	// p50 0.46 ms / p90 7.9 ms. The 90th percentile separates the two
	// by far more than any CI host's noise.
	med, p90 := late[len(late)/2], late[len(late)*9/10]
	if p90 >= 2*time.Millisecond {
		t.Fatalf("a plain goroutine's %v sleep ran %v late at the median and %v at p90 with %d workers inside For; chunk boundaries are not yielding the processor",
			period, med, p90, workers)
	}
}

// TestNestedLoopSplitsOnlyOnceContinuationStolen: a loop nested inside a
// spawned child sees its parent's continuation on the deque — something
// a thief could take — and must not add to it; once a thief has taken
// the continuation, the next chunk boundary must.
func TestNestedLoopSplitsOnlyOnceContinuationStolen(t *testing.T) {
	rt := newRT(t, Config{Workers: 2, Levels: 1})
	// Occupy the second worker so nothing is stolen until released.
	var blockerIn, release atomic.Bool
	blocker := rt.Submit(0, func(*Task) any {
		blockerIn.Store(true)
		spinUntil(10*time.Second, release.Load)
		return nil
	})
	if !spinUntil(5*time.Second, blockerIn.Load) {
		t.Fatal("blocker never started")
	}
	const n, grain = 256, 4
	var stolen, timedOut atomic.Bool
	var spawnsWhileFed int64
	before := rt.WasteReport().Spawns
	rt.Run(func(task *Task) any {
		task.Spawn(func(ct *Task) {
			For(ct, 0, n, grain, func(i int) {
				if i != n/2 {
					return
				}
				spawnsWhileFed = rt.WasteReport().Spawns - before
				release.Store(true)
				if !spinUntil(5*time.Second, stolen.Load) {
					timedOut.Store(true)
				}
			})
		})
		// The continuation: runs here when the freed worker steals it
		// (or, on a failure path, after the child returns).
		stolen.Store(true)
		task.Sync()
		return nil
	})
	blocker.Wait()
	if timedOut.Load() {
		t.Fatal("the parent's continuation was never stolen")
	}
	if spawnsWhileFed != 1 {
		t.Fatalf("%d spawns by the middle of the nested loop, want only the caller's own: the loop split while the parent's continuation was there for the taking", spawnsWhileFed)
	}
	if total := rt.WasteReport().Spawns - before; total < 2 {
		t.Fatalf("the nested loop never split after its deque was emptied (%d spawns in all)", total)
	}
}
