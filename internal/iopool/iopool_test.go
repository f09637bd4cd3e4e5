package iopool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

func TestAllSubmittedRun(t *testing.T) {
	p := New(4)
	var count atomic.Int64
	var wg sync.WaitGroup
	const n = 1000
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.Submit(func() {
			count.Add(1)
			wg.Done()
		})
	}
	wg.Wait()
	p.Close()
	if count.Load() != n {
		t.Fatalf("ran %d of %d", count.Load(), n)
	}
}

func TestFIFOOrderSingleThread(t *testing.T) {
	p := New(1) // one thread: strict FIFO observable
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	const n = 100
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		p.Submit(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	p.Close()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; FIFO violated", i, v)
		}
	}
}

func TestSubmitAfterCloseIsNoop(t *testing.T) {
	p := New(2)
	p.Close()
	ran := false
	p.Submit(func() { ran = true })
	time.Sleep(2 * time.Millisecond)
	if ran {
		t.Fatal("callback ran after Close")
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(2)
	p.Close()
	p.Close()
}

func TestCloseDrains(t *testing.T) {
	p := New(1)
	var count atomic.Int64
	for i := 0; i < 50; i++ {
		p.Submit(func() {
			time.Sleep(100 * time.Microsecond)
			count.Add(1)
		})
	}
	p.Close() // must wait for all queued callbacks
	if count.Load() != 50 {
		t.Fatalf("Close returned with %d of 50 run", count.Load())
	}
}

func TestDepthHighWaterCompletions(t *testing.T) {
	p := New(1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	const n = 10
	wg.Add(n)
	// Block the single handler so submissions pile up deterministically.
	for i := 0; i < n; i++ {
		p.Submit(func() {
			<-release
			wg.Done()
		})
	}
	if d := p.Depth(); d != n {
		t.Errorf("depth = %d with handler blocked, want %d", d, n)
	}
	if hw := p.HighWater(); hw < n {
		t.Errorf("high water = %d, want >= %d", hw, n)
	}
	close(release)
	wg.Wait()
	p.Close()
	if d := p.Depth(); d != 0 {
		t.Errorf("depth = %d after drain, want 0", d)
	}
	if c := p.Completions(); c != n {
		t.Errorf("completions = %d, want %d", c, n)
	}
	if hw := p.HighWater(); hw < n {
		t.Errorf("high water = %d after drain, want >= %d", hw, n)
	}
}

func TestDefaultThreads(t *testing.T) {
	p := New(0)
	done := make(chan struct{})
	p.Submit(func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("default-sized pool did not run work")
	}
	p.Close()
}

// TestHandlerResubmitNoDeadlock is the regression test for the Submit
// deadlock: the old Submit held p.mu across a blocking channel send,
// so a handler callback re-submitting into a full queue blocked the
// only consumer forever (and Close behind it, on the mutex). The
// sequence below deadlocked deterministically on that code — one
// handler, a capacity-one channel, the handler's callback re-submitting
// while the channel was full — and is detected by the watchdog timeout.
func TestHandlerResubmitNoDeadlock(t *testing.T) {
	p := New(1)
	gate := make(chan struct{})
	resubmitted := make(chan struct{})
	var ran atomic.Int64
	// Occupy the single handler; on release, it re-submits from inside
	// the callback.
	p.Submit(func() {
		<-gate
		p.Submit(func() { ran.Add(1) })
		close(resubmitted)
	})
	// Queue one more behind the occupied handler (on the old code this
	// filled the capacity-1 channel the re-submission above needed).
	p.Submit(func() { ran.Add(1) })
	close(gate)
	// On the old code the handler is now stuck in Submit's blocking
	// send (holding p.mu) and this wait times out.
	select {
	case <-resubmitted:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: Submit from a handler callback blocked on the full handoff channel")
	}

	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: Submit from a handler callback blocked the pool (mutex held across a full-queue send)")
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d callbacks, want 2", got)
	}
}

// TestCloseNotBlockedByFloodingSubmitters pins the other face of the
// same bug: Close must complete — and run every accepted callback —
// even when many submitters are hammering a pool whose initial ring is
// far smaller than the offered load.
func TestCloseNotBlockedByFloodingSubmitters(t *testing.T) {
	const submitters, each = 50, 40
	p := New(2)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				p.Submit(func() { ran.Add(1) })
			}
		}()
	}
	wg.Wait()

	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not complete under a submission flood")
	}
	if got := ran.Load(); got != submitters*each {
		t.Fatalf("ran %d of %d accepted callbacks", got, submitters*each)
	}
	if d := p.Depth(); d != 0 {
		t.Fatalf("Depth after Close = %d, want 0", d)
	}
	if c := p.Completions(); c != submitters*each {
		t.Fatalf("Completions = %d, want %d", c, submitters*each)
	}
}

// hold occupies p's single handler until the returned gate is closed.
func hold(p *Pool) chan struct{} {
	gate, started := make(chan struct{}), make(chan struct{})
	p.Submit(func() {
		close(started)
		<-gate
	})
	<-started
	return gate
}

// TestFIFOOrderAcrossWrappedGrowth: callbacks run strictly in
// submission order when the ring doubles while wrapped, with its head
// past slot 0 and its tail behind it.
func TestFIFOOrderAcrossWrappedGrowth(t *testing.T) {
	p := New(1)
	defer p.Close()
	// Run 40 through first, so the head is no longer at slot 0.
	gate := hold(p)
	var drained sync.WaitGroup
	drained.Add(40)
	for i := 0; i < 40; i++ {
		p.Submit(drained.Done)
	}
	close(gate)
	drained.Wait()

	gate = hold(p)
	p.mu.Lock()
	head, size := p.head, len(p.ring)
	p.mu.Unlock()
	if head == 0 {
		t.Fatal("ring head back at slot 0; the ring would not wrap")
	}
	n := size + size/2 // more than the ring holds: it grows while wrapped
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.Submit(func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			wg.Done()
		})
	}
	close(gate)
	wg.Wait()
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: got %d (full: %v)", i, v, got)
		}
	}
}

// submitCapturing submits a callback that captures a fresh object and
// returns a weak pointer to that object.
func submitCapturing(p *Pool) weak.Pointer[[64]byte] {
	obj := new([64]byte)
	p.Submit(func() { obj[0]++ })
	return weak.Make(obj)
}

// TestRunCallbackReleased: once a callback has run, the pool keeps no
// reference to it, so what it captured can be collected.
func TestRunCallbackReleased(t *testing.T) {
	p := New(1)
	defer p.Close()
	w := submitCapturing(p)
	for deadline := time.Now().Add(2 * time.Second); p.Completions() < 1 || w.Value() != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a run callback's captured object is still reachable")
		}
		runtime.GC()
	}
}

// TestDepthCountsOnlyAccepted pins the depth-accounting fix: a Submit
// rejected after Close must not perturb the gauges (the old code
// incremented depth before the closed check could... no — it
// incremented under the same lock, but a *blocked* submitter inflated
// depth for work that had not been accepted into the queue; now depth
// moves only on acceptance).
func TestDepthCountsOnlyAccepted(t *testing.T) {
	p := New(1)
	p.Close()
	p.Submit(func() { t.Error("callback ran after Close") })
	if d := p.Depth(); d != 0 {
		t.Fatalf("Depth after rejected Submit = %d, want 0", d)
	}
	if hw := p.HighWater(); hw != 0 {
		t.Fatalf("HighWater after rejected Submit = %d, want 0", hw)
	}
	if c := p.Completions(); c != 0 {
		t.Fatalf("Completions = %d, want 0", c)
	}
}
