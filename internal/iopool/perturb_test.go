//go:build icilk_debug

package iopool

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icilk/internal/invariant/perturb"
)

// TestPerturbSubmitStorm floods a deliberately undersized pool from
// many goroutines — every direct callback re-submitting a child from
// inside a handler, the pattern that deadlocked the old Submit — under
// seeded perturbation of the submit path. The armed assertions check
// depth never going negative and Close draining every accepted
// callback.
func TestPerturbSubmitStorm(t *testing.T) {
	for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			perturb.Enable(seed)
			defer perturb.Disable()

			p := New(2)
			const submitters, each = 8, 50
			var ran atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < submitters; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < each; j++ {
						p.Submit(func() {
							ran.Add(1)
							p.Submit(func() { ran.Add(1) }) // handler re-submission
						})
					}
				}()
			}
			wg.Wait()

			// Every direct callback re-submits one child, so the pool
			// owes 2× the direct count; wait for the fleet to drain
			// before Close so no child submission races the closed gate.
			const want = 2 * submitters * each
			deadline := time.Now().Add(60 * time.Second)
			for ran.Load() < want {
				if time.Now().After(deadline) {
					t.Fatalf("ran %d of %d callbacks (seed %#x): pool stalled",
						ran.Load(), want, seed)
				}
				time.Sleep(time.Millisecond)
			}
			p.Close()
			if d := p.Depth(); d != 0 {
				t.Fatalf("Depth after Close = %d, want 0", d)
			}
			if c := p.Completions(); c != want {
				t.Fatalf("Completions = %d, want %d", c, want)
			}
		})
	}
}
