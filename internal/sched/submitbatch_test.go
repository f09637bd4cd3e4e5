package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icilk/internal/invariant"
)

// TestSubmitBatchFIFOWithinBatch: a batch runs in slice order on the
// caller, and has finished when SubmitBatch returns.
func TestSubmitBatchFIFOWithinBatch(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	const n = 100
	var order []int
	fns := make([]func(), n)
	for i := range fns {
		fns[i] = func() { order = append(order, i) }
	}
	rt.SubmitBatch(fns)
	if len(order) != n {
		t.Fatalf("ran %d of %d before SubmitBatch returned", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; batch order violated", i, v)
		}
	}
}

// TestSubmitBatchSingleAndEmpty: an empty batch is a no-op and a
// one-callback batch runs it.
func TestSubmitBatchSingleAndEmpty(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	rt.SubmitBatch(nil)
	rt.SubmitBatch([]func(){})
	ran := 0
	rt.SubmitBatch([]func(){func() { ran++ }})
	if ran != 1 {
		t.Fatalf("single-callback batch ran %d times, want 1", ran)
	}
}

// TestSubmitBatchWakesBeforeBatchEnds: completing a future inside a
// batch wakes the sleeping workers at once, as the paper's gate does,
// not when the batch ends. Both workers sleep on an empty bitfield
// while a task waits on an I/O future; the batch's first fn completes
// the future and its second waits for the task to finish, which it can
// only do if the first fn's zero→non-zero Set woke a worker.
func TestSubmitBatchWakesBeforeBatchEnds(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	io := rt.NewIOFuture()
	fut := rt.SubmitFuture(0, func(task *Task) any { return io.Get(task) })
	deadline := time.Now().Add(time.Minute)
	for rt.bits.Sleepers() < 2 || rt.bits.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("workers never went to sleep on an empty bitfield")
		}
		time.Sleep(100 * time.Microsecond)
	}
	resumed := false
	rt.SubmitBatch([]func(){
		func() { io.Complete(7) },
		func() {
			select {
			case <-fut.WaitChan():
				resumed = true
			case <-time.After(10 * time.Second):
			}
		},
	})
	if !resumed {
		t.Fatal("the task did not finish inside the batch: the completion's wake waited for the batch to end")
	}
	if v, _ := fut.TryGet(); v != 7 {
		t.Fatalf("task returned %v, want 7", v)
	}
}

// TestSubmitBatchAfterCloseIsNoop: a shared poller outlives the
// runtimes it serves, so a late pass must run nothing on a stopped
// runtime.
func TestSubmitBatchAfterCloseIsNoop(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	rt.Close()
	ran := 0
	rt.SubmitBatch([]func(){func() { ran++ }, func() { ran++ }})
	if ran != 0 {
		t.Fatalf("%d callbacks ran after Close", ran)
	}
}

// TestSubmitBatchSteadyStateAllocFree is the inline path's allocation
// gate: running a batch allocates nothing.
func TestSubmitBatchSteadyStateAllocFree(t *testing.T) {
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation accounting differs under -race and icilk_debug")
	}
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	fns := make([]func(), 64)
	for i := range fns {
		fns[i] = func() {}
	}
	for _, n := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("fns=%d", n), func(t *testing.T) {
			batch := fns[:n]
			if allocs := testing.AllocsPerRun(200, func() { rt.SubmitBatch(batch) }); allocs != 0 {
				t.Errorf("SubmitBatch of %d fns: %.2f allocs per batch, want 0", n, allocs)
			}
		})
	}
}

// TestSubmitBatchStress: concurrent submitters (one per shared poller)
// complete I/O futures that tasks on every level are suspended on. A
// lost wake leaves a worker asleep beside resumable work and the wait
// times out.
func TestSubmitBatchStress(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 2, Policy: Prompt})
	const submitters, rounds, per = 4, 50, 8
	var sum atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ios := make([]*Future, per)
			fns := make([]func(), per)
			futs := make([]*Future, per)
			for r := 0; r < rounds; r++ {
				for i := range ios {
					io := rt.NewIOFuture()
					ios[i] = io
					fns[i] = func() { io.Complete(1) }
					futs[i] = rt.SubmitFuture(i%2, func(task *Task) any {
						sum.Add(int64(io.Get(task).(int)))
						return nil
					})
				}
				rt.SubmitBatch(fns)
				deadline := time.After(time.Minute)
				for _, f := range futs {
					select {
					case <-f.WaitChan():
					case <-deadline:
						t.Error("a task suspended on a batch-completed future never resumed")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := sum.Load(), int64(submitters*rounds*per); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}
