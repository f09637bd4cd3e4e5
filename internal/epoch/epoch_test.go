package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestAdvanceRequiresUnpinnedOrCurrent(t *testing.T) {
	c := NewCollector()
	p1 := c.Register()
	p2 := c.Register()

	p1.Pin()
	e0 := c.Epoch()
	c.Collect() // p1 pinned at current epoch: advance allowed
	if c.Epoch() != e0+1 {
		t.Fatalf("epoch = %d, want %d", c.Epoch(), e0+1)
	}
	// p1 is still pinned at the OLD epoch now; advancing again must
	// fail until it unpins.
	c.Collect()
	if c.Epoch() != e0+1 {
		t.Fatalf("epoch advanced past a stale pinned participant")
	}
	p1.Unpin()
	c.Collect()
	if c.Epoch() != e0+2 {
		t.Fatalf("epoch = %d, want %d after unpin", c.Epoch(), e0+2)
	}
	_ = p2
}

func TestRetireRunsAfterTwoEpochs(t *testing.T) {
	c := NewCollector()
	p := c.Register()

	var ran atomic.Bool
	p.Pin()
	c.Retire(func() { ran.Store(true) })
	p.Unpin()

	c.Collect() // epoch e -> e+1
	if ran.Load() {
		t.Fatal("retired callback ran after a single advance")
	}
	c.Collect() // e+1 -> e+2: callbacks from e are now safe
	if !ran.Load() {
		t.Fatal("retired callback did not run after two advances")
	}
}

func TestNestedPin(t *testing.T) {
	c := NewCollector()
	p := c.Register()
	p.Pin()
	p.Pin()
	p.Unpin()
	// Still pinned: a stale pin must block advancement after one step.
	c.Collect()
	e := c.Epoch()
	c.Collect()
	if c.Epoch() != e {
		t.Fatal("nested pin did not hold the epoch")
	}
	p.Unpin()
	c.Collect()
	if c.Epoch() != e+1 {
		t.Fatal("epoch did not advance after full unpin")
	}
}

func TestUnpinWithoutPinPanics(t *testing.T) {
	c := NewCollector()
	p := c.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Unpin()
}

// TestConcurrentSafety hammers pin/retire/collect from several
// goroutines and checks that no callback runs while a participant
// could still hold a reference from the retire epoch: each callback
// carries the global epoch read just before its Retire (the collector
// tags it with that or a later one) and must find the epoch at least
// two advances on when it runs — also when the collector that took it
// off the list was preempted before running it.
func TestConcurrentSafety(t *testing.T) {
	c := NewCollector()
	const workers = 4
	var wg sync.WaitGroup
	var ran, early atomic.Int64
	var retired atomic.Int64
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := c.Register()
			for j := 0; j < 2000; j++ {
				p.Pin()
				retired.Add(1)
				at := c.Epoch()
				c.Retire(func() {
					ran.Add(1)
					if c.Epoch() < at+2 {
						early.Add(1)
					}
				})
				p.Unpin()
				c.Collect()
			}
		}()
	}
	wg.Wait()
	// Quiescent: a few more collects drain everything retired at
	// least two epochs ago.
	for i := 0; i < 4; i++ {
		c.Collect()
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d of %d callbacks ran before the epoch was two past their retirement", n, ran.Load())
	}
	if ran.Load() != retired.Load() {
		t.Fatalf("ran %d, retired %d: quiescent collects left retirements behind", ran.Load(), retired.Load())
	}
}

// TestRetireOrderAcrossBatches retires more callbacks in one epoch than
// Collect takes off the list per lock hold and checks they all run, in
// retirement order, on the collect that makes them safe.
func TestRetireOrderAcrossBatches(t *testing.T) {
	c := NewCollector()
	p := c.Register()
	const n = 50
	var order []int
	p.Pin()
	for i := 0; i < n; i++ {
		c.Retire(func() { order = append(order, i) })
	}
	p.Unpin()
	if got := c.Collect(); got != 0 {
		t.Fatalf("first collect ran %d callbacks, want 0", got)
	}
	if got := c.Collect(); got != n {
		t.Fatalf("second collect ran %d callbacks, want %d", got, n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("callback %d ran in position %d", v, i)
		}
	}
}
