package sched

import "testing"

// TestOnCompleteOrderAndOnce: every registered callback runs exactly
// once, in registration order (the first sits in the inline slot, the
// rest in the spill slice), and a callback registered after completion
// runs immediately on the caller.
func TestOnCompleteOrderAndOnce(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	for _, n := range []int{1, 2, 5} {
		f := rt.NewIOFuture()
		var order []int
		for i := 0; i < n; i++ {
			i := i
			f.OnComplete(func(err error) {
				if err != nil {
					t.Errorf("callback %d: err = %v", i, err)
				}
				order = append(order, i)
			})
		}
		f.Complete(nil)
		if len(order) != n {
			t.Fatalf("%d callbacks registered, %d ran", n, len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("callbacks ran in order %v", order)
			}
		}
		late := false
		f.OnComplete(func(error) { late = true })
		if !late || len(order) != n {
			t.Fatalf("post-completion callback: ran=%v, earlier callbacks re-ran=%v", late, len(order) != n)
		}
	}
}

// TestOnCompleteSingleCallbackDoesNotAllocate: the one-callback case —
// what admission and the benchmark clients register per request — must
// not allocate a callback slice.
func TestOnCompleteSingleCallbackDoesNotAllocate(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	const runs = 100
	futs := make([]*Future, 0, runs+1)
	for i := 0; i <= runs; i++ {
		futs = append(futs, rt.NewIOFuture())
	}
	cb := func(error) {}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		futs[i].OnComplete(cb)
		i++
	}); allocs != 0 {
		t.Fatalf("OnComplete with one callback allocated %.1f objects per call", allocs)
	}
}
