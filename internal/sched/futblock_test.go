package sched

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"

	"icilk/internal/invariant"
)

// sizeClass returns the allocator's size class for an object of size
// bytes (the smallest class that holds it; size itself past the table).
func sizeClass(size uintptr) uintptr {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for _, c := range ms.BySize {
		if uintptr(c.Size) >= size {
			return uintptr(c.Size)
		}
	}
	return size
}

// TestFutureSizeClass pins what a future costs the heap. A task-backed
// one is a slot of a block, and its share of the block's size class is
// 152 bytes: one more word per Future tips the block into the next
// class, at 168. An I/O future is allocated alone and stays in the
// 144-byte class; one more word puts it at 160.
func TestFutureSizeClass(t *testing.T) {
	if got := sizeClass(unsafe.Sizeof(futBlock{})) / futBlockSize; got > 152 {
		t.Errorf("a future in a block costs %d bytes, want <= 152", got)
	}
	if got := sizeClass(unsafe.Sizeof(Future{})); got > 144 {
		t.Errorf("an I/O future costs %d bytes, want <= 144", got)
	}
}

// nopFuture is a future routine that captures nothing, so passing it
// allocates no closure.
func nopFuture(*Task) any { return nil }

// TestSubmitWaitAllocFree pins external submission: the future comes
// from a block, the context, the deque and the waiter's channel from
// the runtime's free lists, so Submit+Wait of a routine that captures
// nothing costs the heap only the future's 1/32 of a block.
func TestSubmitWaitAllocFree(t *testing.T) {
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation accounting differs under -race and icilk_debug")
	}
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	const ops = 100
	round := func() {
		for i := 0; i < ops; i++ {
			rt.SubmitFuture(0, nopFuture).Wait()
		}
	}
	round() // warm the free lists
	avg := testing.AllocsPerRun(20, round)
	if perOp := avg / ops; perOp > 0.05 {
		t.Errorf("Submit+Wait allocates %.3f objects/op, want <= 0.05", perOp)
	}
	// Across a collection: the waiter's channel and the deque come from
	// the runtime's own lists, which a GC does not empty, so the round
	// after it claims future blocks and nothing else.
	if n, blocks := mallocsAfterGC(round), uint64(ops/futBlockSize+1); n > blocks {
		t.Errorf("Submit+Wait after a GC: %d allocations over %d ops, want at most %d (the future blocks)", n, ops, blocks)
	}
}

// mallocsAfterGC runs f right after two collections (a sync.Pool
// survives only one) and returns the heap allocations it made. A
// collection also empties the Go runtime's central cache of the
// records a blocked channel operation takes (sudogs), which f's
// harness blocks on too, so one blocking hand-off between goroutines
// refills that first. The counter is the whole process's, so a stray
// allocation by the Go runtime can land in a window; the smallest of
// three is returned.
func mallocsAfterGC(f func()) uint64 {
	var least uint64
	for w := 0; w < 3; w++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.GC()
		ping := make(chan struct{})
		go func() { ping <- struct{}{} }()
		<-ping
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		if n := m1.Mallocs - m0.Mallocs; w == 0 || n < least {
			least = n
		}
	}
	return least
}

// TestFutCreateGetAllocFree is the same for a task's own futures: the
// future comes from its worker's block, so FutCreate+Get of a routine
// that captures nothing costs 1/32 of an object.
func TestFutCreateGetAllocFree(t *testing.T) {
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation accounting differs under -race and icilk_debug")
	}
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	d := startDriver(rt)
	defer d.stop()
	const ops = 100
	cycle := func(task *Task) {
		for i := 0; i < ops; i++ {
			task.FutCreate(0, nopFuture).Get(task)
		}
	}
	d.do(cycle) // warm the free lists
	avg := testing.AllocsPerRun(20, func() { d.do(cycle) })
	if perOp := avg / ops; perOp > 0.05 {
		t.Errorf("FutCreate+Get allocates %.3f objects/op, want <= 0.05", perOp)
	}
}

// TestFutureBlockClaiming races block claims: eight submitters share the
// runtime's block while every routine takes two more futures from its
// worker's, one at its own level and one at the other. Every future must
// be its own slot and keep its own value. Run with -race; an icilk_debug
// build also asserts that each claimed slot was still zero.
func TestFutureBlockClaiming(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 4, Levels: 2, Policy: Prompt})
	const submitters, perSubmitter, window = 8, 2000, 50 // window divides perSubmitter
	// Request id's futures are futs[3*id] (the routine), then its
	// own-level and other-level children; each future's value is its index.
	futs := make([]*Future, 3*submitters*perSubmitter)
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i0 := 0; i0 < perSubmitter; i0 += window {
				for i := i0; i < i0+window; i++ {
					id := s*perSubmitter + i
					level := id % 2
					futs[3*id] = rt.SubmitFuture(level, func(task *Task) any {
						own := task.FutCreate(level, func(*Task) any { return 3*id + 1 })
						other := task.FutCreate(1-level, func(*Task) any { return 3*id + 2 })
						futs[3*id+1], futs[3*id+2] = own, other
						if own.Get(task) != 3*id+1 || other.Get(task) != 3*id+2 {
							return -1
						}
						return 3 * id
					})
				}
				for i := i0; i < i0+window; i++ {
					futs[3*(s*perSubmitter+i)].Wait()
				}
			}
		}()
	}
	wg.Wait()
	seen := make(map[*Future]int, len(futs))
	for k, f := range futs {
		if j, dup := seen[f]; dup {
			t.Fatalf("futures %d and %d are the same slot", j, k)
		}
		seen[f] = k
		if v, ok := f.TryGet(); !ok || v != k {
			t.Fatalf("future %d holds %v (done %v), want %d", k, v, ok, k)
		}
	}
}

// closedRuntime runs futures on a runtime that it then closes and
// drops, interleaved with futures of kept — so that blocks shared
// between runtimes would hold both runtimes' futures — and returns a
// weak pointer to the closed runtime and the last of kept's futures.
func closedRuntime(t *testing.T, kept *Runtime) (weak.Pointer[Runtime], *Future) {
	rt, err := New(Config{Workers: 2, Levels: 1, Policy: Prompt})
	if err != nil {
		t.Fatal(err)
	}
	var held *Future
	for i := 0; i < 2*futBlockSize; i++ {
		rt.SubmitFuture(0, func(task *Task) any { return task.FutCreate(0, nopFuture).Get(task) }).Wait()
		held = kept.SubmitFuture(0, func(task *Task) any { return task.FutCreate(0, nopFuture).Get(task) })
		held.Wait()
	}
	rt.Close()
	return weak.Make(rt), held
}

// TestFutureBlocksDoNotPinClosedRuntime: a future keeps its block
// alive, and blocks are per runtime, so holding a future of one runtime
// does not keep a closed runtime reachable.
func TestFutureBlocksDoNotPinClosedRuntime(t *testing.T) {
	kept := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	w, held := closedRuntime(t, kept)
	// A few rounds allow for task goroutines still exiting after Close.
	for deadline := time.Now().Add(2 * time.Second); w.Value() != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("closed runtime still reachable while another runtime's future is held")
		}
		runtime.GC()
	}
	runtime.KeepAlive(held)
}

// waitParked polls until f's wake-up channel has capacity want (1: a
// lone Wait has borrowed one; 0: WaitChan's).
func waitParked(t *testing.T, f *Future, want int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		f.mu.Lock()
		ch := f.ch
		f.mu.Unlock()
		if ch != nil && cap(ch) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no waiter parked with a capacity-%d channel", want)
		}
	}
}

// TestWaitHandsOverToSecondWaiter: a lone Wait parks on a borrowed
// channel; a second waiter, by Wait or WaitChan, moves it onto the
// channel closed at completion, and one completion releases both and
// leaves nothing borrowed behind.
func TestWaitHandsOverToSecondWaiter(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	for _, viaWaitChan := range []bool{false, true} {
		f := rt.NewIOFuture()
		got := make(chan any, 2)
		go func() { got <- f.Wait() }()
		waitParked(t, f, 1)
		if viaWaitChan {
			go func() { <-f.WaitChan(); got <- f.Wait() }()
		} else {
			go func() { got <- f.Wait() }()
		}
		waitParked(t, f, 0)
		f.Complete(7)
		for i := 0; i < 2; i++ {
			select {
			case v := <-got:
				if v != 7 {
					t.Fatalf("waiter returned %v, want 7", v)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("WaitChan=%v: waiter %d never returned", viaWaitChan, i)
			}
		}
	}
	// The lone waiter's channel goes back, and the future forgets it.
	f := rt.NewIOFuture()
	done := make(chan struct{})
	go func() { f.Wait(); close(done) }()
	waitParked(t, f, 1)
	f.Complete(nil)
	<-done
	if f.ch != nil {
		t.Fatal("completion left the lone waiter's borrowed channel on the future")
	}
}
