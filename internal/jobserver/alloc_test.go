package jobserver

import (
	"runtime"
	"testing"

	"icilk"
	"icilk/internal/invariant"
)

// benchConfig is the pinned benchmark's sizing of the four classes
// (benchmark/joblevels.go).
var benchConfig = Config{MMSize: 16, FibN: 16, SortSize: 2048, SWSize: 64}

// TestSortKernelsAllocFree gates sort's two sequential runs: a leaf of
// sortBase elements scatters into the tmp run mergesort already owns,
// with its histogram on the stack, and the base merge of mergeBase
// elements writes only out.
func TestSortKernelsAllocFree(t *testing.T) {
	in, xs, tmp := randomInts(mergeBase, 1), make([]int64, mergeBase), make([]int64, mergeBase)
	if n := testing.AllocsPerRun(100, func() {
		copy(xs, in)
		radixSort(xs[:sortBase], tmp)
	}); n != 0 {
		t.Errorf("radix leaf of %d: %v allocs, want 0", sortBase, n)
	}
	mid := mergeBase / 2
	radixSort(tmp[:mid], xs)
	radixSort(tmp[mid:], xs)
	if n := testing.AllocsPerRun(100, func() { mergeRuns(tmp[:mid], tmp[mid:], xs) }); n != 0 {
		t.Errorf("merge of %d: %v allocs, want 0", mergeBase, n)
	}
}

// TestJobAllocBudget gates what one request may allocate in steady
// state: a 1/32 share of the block its future comes from and a 1/32
// share of the block its result cell comes from (cellResult), so about
// 0.06 objects, for every class. The waiter's channel is recycled, there
// is no root closure (the request is a recycled jobReq), the checksum is
// not boxed, mm's loop body is bound once per scratch, and there is no
// object per fork: mm's loop splits, fib's 12 frames and sort's one half
// (2048 elements over 1024-element leaves; a merge that size is
// sequential) are records that ride the task contexts, and sw's tile
// frames live in its scratch. The inputs, work arrays and generators
// are the scratch lists' and the stack's. The counter is the whole
// process's, so the smallest of three windows is read; the allowance
// above the two block shares is a context that meets a fork with no
// record parked yet (a goroutine new to the class).
func TestJobAllocBudget(t *testing.T) {
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation accounting differs under -race and icilk_debug")
	}
	rt := newRT(t, icilk.Prompt)
	srv, err := New(rt, benchConfig)
	if err != nil {
		t.Fatal(err)
	}
	const warm, rounds, windows = 200, 2000, 3
	const maxMallocs, maxBytes = 0.1, 1 << 10
	for class := range Levels {
		for i := int64(0); i < warm; i++ {
			srv.Do(class, i).Wait()
		}
		var mallocs, bytes float64
		for w := 0; w < windows; w++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := int64(0); i < rounds; i++ {
				srv.Do(class, i).Wait()
			}
			runtime.ReadMemStats(&m1)
			m := float64(m1.Mallocs-m0.Mallocs) / rounds
			b := float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
			if w == 0 || m < mallocs {
				mallocs = m
			}
			if w == 0 || b < bytes {
				bytes = b
			}
		}
		t.Logf("%s: %.2f mallocs, %.0f B per request", OpNames[class], mallocs, bytes)
		if mallocs > maxMallocs || bytes > maxBytes {
			t.Errorf("%s: %.2f mallocs and %.0f B per request, want at most %.1f and %d",
				OpNames[class], mallocs, bytes, maxMallocs, maxBytes)
		}

		// Across a collection: the record, the scratch, the waiter's
		// channel, the deques and the called frames come from lists
		// their owners keep through a GC, so a window right after one
		// claims future and cell blocks and nothing else.
		const gcRounds = 64
		blocks := uint64(2 * (gcRounds/32 + 1))
		var least uint64
		for w := 0; w < windows; w++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			for i := int64(0); i < gcRounds; i++ {
				srv.Do(class, i).Wait()
			}
			runtime.ReadMemStats(&m1)
			if n := m1.Mallocs - m0.Mallocs; w == 0 || n < least {
				least = n
			}
		}
		if least > blocks {
			t.Errorf("%s after a GC: %d allocations over %d requests, want at most %d (the future and cell blocks)",
				OpNames[class], least, gcRounds, blocks)
		}
	}
}
