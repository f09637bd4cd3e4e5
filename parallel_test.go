package icilk

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	rt := newRT(t, Config{Workers: 4, Levels: 1})
	prop := func(loRaw, spanRaw uint8, grainRaw uint8) bool {
		lo := int(loRaw % 50)
		hi := lo + int(spanRaw%200)
		grain := int(grainRaw % 20) // 0 = default
		counts := make([]atomic.Int32, 260)
		rt.Run(func(task *Task) any {
			For(task, lo, hi, grain, func(i int) { counts[i].Add(1) })
			return nil
		})
		for i := range counts {
			want := int32(0)
			if i >= lo && i < hi {
				want = 1
			}
			if counts[i].Load() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestForEmptyAndReversedRange(t *testing.T) {
	rt := newRT(t, Config{Workers: 2, Levels: 1})
	ran := false
	rt.Run(func(task *Task) any {
		For(task, 5, 5, 1, func(int) { ran = true })
		For(task, 9, 3, 1, func(int) { ran = true })
		return nil
	})
	if ran {
		t.Fatal("body ran for an empty range")
	}
}

func TestMapOrdered(t *testing.T) {
	rt := newRT(t, Config{Workers: 4, Levels: 1})
	in := make([]int, 500)
	for i := range in {
		in[i] = i
	}
	out := rt.Run(func(task *Task) any {
		return Map(task, in, 16, func(v int) int { return v * v })
	}).([]int)
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestReduceSum(t *testing.T) {
	rt := newRT(t, Config{Workers: 4, Levels: 1})
	got := rt.Run(func(task *Task) any {
		return Reduce(task, 1, 1001, 32, 0,
			func(i int) int { return i },
			func(a, b int) int { return a + b })
	}).(int)
	if got != 500500 {
		t.Fatalf("sum = %d", got)
	}
	// Empty range returns the identity.
	got = rt.Run(func(task *Task) any {
		return Reduce(task, 10, 10, 1, -7,
			func(i int) int { return i },
			func(a, b int) int { return a + b })
	}).(int)
	if got != -7 {
		t.Fatalf("empty reduce = %d", got)
	}
}

func TestReduceMaxWithStrings(t *testing.T) {
	rt := newRT(t, Config{Workers: 3, Levels: 1})
	words := []string{"pear", "apple", "zucchini", "fig", "mango"}
	got := rt.Run(func(task *Task) any {
		return Reduce(task, 0, len(words), 1, "",
			func(i int) string { return words[i] },
			func(a, b string) string {
				if a > b {
					return a
				}
				return b
			})
	}).(string)
	if got != "zucchini" {
		t.Fatalf("max = %q", got)
	}
}

// TestReduceFrameScopedCombine is the frame-scoping regression test:
// a stalled leaf deep in the right subtree must not block the
// independent left subtree's combine. Range [0,4) with grain 1 splits
// at 2 (and, if a thief takes [2,4), again at 3); leaf 3 spins until it
// observes leaves 0 and 1 combined. Under the fixed Reduce each split joins
// in its own frame, so the left combine fires while leaf 3 stalls and
// the whole reduction completes. Under the seed's shared-frame version
// (see TestReduceSharedSerializesCombine) the left spine's sync joins
// the enclosing right-half spawn too, so the left combine is stuck
// behind the stalled leaf — this test deadlocks against the old code.
func TestReduceFrameScopedCombine(t *testing.T) {
	rt := newRT(t, Config{Workers: 4, Levels: 1, Scheduler: Prompt})
	var leftCombined atomic.Bool
	var stallTimedOut atomic.Bool
	got := rt.Run(func(task *Task) any {
		return Reduce(task, 0, 4, 1, 0,
			func(i int) int {
				if i == 3 {
					deadline := time.Now().Add(3 * time.Second)
					for !leftCombined.Load() {
						if time.Now().After(deadline) {
							stallTimedOut.Store(true)
							break
						}
						runtime.Gosched()
					}
				}
				return 1 << i
			},
			func(a, b int) int {
				if a == 1 && b == 2 {
					leftCombined.Store(true)
				}
				return a | b
			})
	}).(int)
	if got != 0b1111 {
		t.Fatalf("reduce = %#b, want 0b1111", got)
	}
	if stallTimedOut.Load() {
		t.Fatal("left subtree's combine did not fire while the right leaf stalled: nested sync joined an enclosing frame's spawn")
	}
}

// reduceSharedRec is the seed's shared-task-frame reduction (eager
// halving, left recursion on the caller's own Task), kept here only as
// the specimen for TestReduceSharedSerializesCombine: its nested syncs
// join right-sibling spawns of enclosing frames, over-synchronizing the
// combine tree.
func reduceSharedRec[T any](t *Task, lo, hi, grain int, zero T, leaf func(i int) T, combine func(a, b T) T) T {
	if hi-lo <= grain {
		acc := zero
		for i := lo; i < hi; i++ {
			acc = combine(acc, leaf(i))
		}
		return acc
	}
	mid := lo + (hi-lo)/2
	var right T
	t.Spawn(func(ct *Task) { right = reduceSharedRec(ct, mid, hi, grain, zero, leaf, combine) })
	left := reduceSharedRec(t, lo, mid, grain, zero, leaf, combine)
	t.Sync()
	return combine(left, right)
}

// TestReduceSharedSerializesCombine pins down the defect the called
// frames fix, against the old recursion: its left spine recurses on the
// caller's own Task, so the sync guarding combine(1,2) also joins the
// enclosing [2,4) spawn and cannot fire until the stalled leaf 3 gives
// up.
func TestReduceSharedSerializesCombine(t *testing.T) {
	rt := newRT(t, Config{Workers: 4, Levels: 1, Scheduler: Prompt})
	var leftCombined atomic.Bool
	var stallTimedOut atomic.Bool
	got := rt.Run(func(task *Task) any {
		return reduceSharedRec(task, 0, 4, 1, 0,
			func(i int) int {
				if i == 3 {
					deadline := time.Now().Add(300 * time.Millisecond)
					for !leftCombined.Load() {
						if time.Now().After(deadline) {
							stallTimedOut.Store(true)
							break
						}
						runtime.Gosched()
					}
				}
				return 1 << i
			},
			func(a, b int) int {
				if a == 1 && b == 2 {
					leftCombined.Store(true)
				}
				return a | b
			})
	}).(int)
	if got != 0b1111 {
		t.Fatalf("reduce = %#b, want 0b1111", got)
	}
	if !stallTimedOut.Load() {
		t.Fatal("the shared-frame recursion's left combine fired during the stall; it no longer exhibits the over-synchronization it exists to demonstrate")
	}
}

// TestGrainResolution unit-tests the split cutoff rules directly:
// the resolved grain never exceeds the range and the default never
// degenerates to one-iteration spawns, whatever the worker count.
func TestGrainResolution(t *testing.T) {
	rt := newRT(t, Config{Workers: 8, Levels: 1})
	rt.Run(func(task *Task) any {
		cases := []struct {
			n, grain, want int
		}{
			{3, 0, 3},             // small range, many workers: clamped to n, not 1
			{5, 100, 5},           // explicit grain clamped to the range
			{7, 7, 7},             // explicit grain exactly the range
			{100, 0, 8},           // 100/(128*8) = 0 → floored at minDefaultGrain
			{1 << 20, 0, 1024},    // large range: n/(128*workers)
			{1 << 20, 4096, 4096}, // explicit grain passes through
		}
		for _, c := range cases {
			if got := resolveGrain(task, c.n, c.grain); got != c.want {
				t.Errorf("resolveGrain(n=%d, grain=%d) = %d, want %d", c.n, c.grain, got, c.want)
			}
		}
		// The default grain is never below minDefaultGrain and never
		// above n, for any range size.
		for n := 1; n < 3000; n = n*2 + 1 {
			g := resolveGrain(task, n, 0)
			if g > n {
				t.Errorf("default grain %d exceeds range %d", g, n)
			}
			if g < minDefaultGrain && g != n {
				t.Errorf("default grain %d for n=%d fell below the one-iteration-spawn floor", g, n)
			}
		}
		// probeGrain stays inside [1, remaining].
		for _, pc := range []struct{ remaining, done int }{{0, 5}, {1, 1000}, {10, 3}, {1 << 20, 64}} {
			g := probeGrain(task, pc.remaining, pc.done)
			if pc.remaining > 0 && (g < 1 || g > pc.remaining) {
				t.Errorf("probeGrain(remaining=%d, done=%d) = %d out of [1, %d]", pc.remaining, pc.done, g, pc.remaining)
			}
		}
		return nil
	})
	// The asymmetric split point is strictly interior for every n ≥ 2.
	for n := 2; n < 500; n++ {
		lo, hi := 17, 17+n
		mid := splitMid(lo, hi)
		if mid <= lo || mid >= hi {
			t.Fatalf("splitMid(%d, %d) = %d not interior", lo, hi, mid)
		}
	}
}

// TestForAutoGrain: the timed-probe mode still executes every index
// exactly once — probed prefix and split remainder must not overlap.
func TestForAutoGrain(t *testing.T) {
	rt := newRT(t, Config{Workers: 4, Levels: 1})
	for _, n := range []int{1, 2, 63, 1024, 10000} {
		counts := make([]atomic.Int32, n)
		rt.Run(func(task *Task) any {
			For(task, 0, n, AutoGrain, func(i int) { counts[i].Add(1) })
			return nil
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}

// TestReduceAutoGrain: the probe's partial accumulation must combine
// with the tree remainder in index order.
func TestReduceAutoGrain(t *testing.T) {
	rt := newRT(t, Config{Workers: 4, Levels: 1})
	const n = 5000
	got := rt.Run(func(task *Task) any {
		return Reduce(task, 1, n+1, AutoGrain, 0,
			func(i int) int { return i },
			func(a, b int) int { return a + b })
	}).(int)
	if want := n * (n + 1) / 2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestScanPrefixSums checks Scan against the sequential reference for
// a spread of sizes, including the empty and single-element cases.
func TestScanPrefixSums(t *testing.T) {
	rt := newRT(t, Config{Workers: 4, Levels: 1})
	for _, n := range []int{0, 1, 2, 7, 100, 4097} {
		in := make([]int, n)
		for i := range in {
			in[i] = i + 1
		}
		var out []int
		var total int
		rt.Run(func(task *Task) any {
			out, total = Scan(task, in, 0, 0, func(a, b int) int { return a + b })
			return nil
		})
		acc := 0
		for i := range in {
			if out[i] != acc {
				t.Fatalf("n=%d: out[%d] = %d, want %d", n, i, out[i], acc)
			}
			acc += in[i]
		}
		if total != acc {
			t.Fatalf("n=%d: total = %d, want %d", n, total, acc)
		}
	}
}

// TestScanNonCommutative: string concatenation only scans correctly if
// every block combine respects index order.
func TestScanNonCommutative(t *testing.T) {
	rt := newRT(t, Config{Workers: 3, Levels: 1})
	in := strings.Split("the quick brown fox jumps over the lazy dog", " ")
	var out []string
	var total string
	rt.Run(func(task *Task) any {
		out, total = Scan(task, in, 2, "", func(a, b string) string { return a + b })
		return nil
	})
	acc := ""
	for i := range in {
		if out[i] != acc {
			t.Fatalf("out[%d] = %q, want %q", i, out[i], acc)
		}
		acc += in[i]
	}
	if total != acc {
		t.Fatalf("total = %q, want %q", total, acc)
	}
}

// TestForSteadyStateAllocs gates allocations on the steady-state loop:
// a warm For must allocate O(splits), never O(iterations). The generous
// bound of 600 is still ~100× below what a single allocation per
// iteration would produce.
func TestForSteadyStateAllocs(t *testing.T) {
	rt := newRT(t, Config{Workers: 2, Levels: 1, Scheduler: Prompt})
	const n, grain = 1 << 16, 1 << 12
	data := make([]int64, n)
	rt.Run(func(task *Task) any {
		body := func(i int) { data[i]++ }
		For(task, 0, n, grain, body) // warm the frame and node pools
		allocs := testing.AllocsPerRun(10, func() {
			For(task, 0, n, grain, body)
		})
		if allocs > 600 {
			t.Errorf("steady-state For allocated %.0f objects for %d iterations (grain %d); loop overhead must not scale with the iteration count", allocs, n, grain)
		}
		return nil
	})
	if data[0] == 0 || data[n-1] == 0 {
		t.Fatal("loop body did not run")
	}
}

func BenchmarkParallelFor(b *testing.B) {
	rt, err := New(Config{Workers: 4, Levels: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	data := make([]float64, 1<<14)
	b.ResetTimer()
	rt.Run(func(task *Task) any {
		for i := 0; i < b.N; i++ {
			For(task, 0, len(data), 1024, func(j int) {
				data[j] = float64(j) * 1.5
			})
		}
		return nil
	})
}
