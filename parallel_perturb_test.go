//go:build icilk_debug

package icilk

import (
	"fmt"
	"sync/atomic"
	"testing"

	"icilk/internal/invariant/perturb"
)

// TestPerturbDataParallel runs For, Reduce, and Scan under every
// scheduler policy with seeded perturbation at all scheduling points —
// most importantly the LoopSplit site between a loop frame's decision
// to split and its continuation parking, the window in which a thief
// takes the right piece. The invariant build's armed assertions (deque
// transitions, token discipline, join-counter bounds) do the deep
// checking; the test itself verifies exactly-once coverage and
// order-correct combining, which is what a lost or doubled steal of a
// loop frame would corrupt.
func TestPerturbDataParallel(t *testing.T) {
	const n = 2000
	for _, pol := range Schedulers() {
		for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
			t.Run(fmt.Sprintf("%v/seed=%#x", pol, seed), func(t *testing.T) {
				rt := newRT(t, Config{Workers: 4, Levels: 1, Scheduler: pol})
				perturb.Enable(seed)
				defer perturb.Disable()

				t.Run("for", func(t *testing.T) {
					counts := make([]atomic.Int32, n)
					rt.Run(func(task *Task) any {
						For(task, 0, n, 16, func(i int) { counts[i].Add(1) })
						return nil
					})
					for i := range counts {
						if c := counts[i].Load(); c != 1 {
							t.Fatalf("index %d ran %d times (seed %#x)", i, c, perturb.Seed())
						}
					}
				})

				t.Run("reduce", func(t *testing.T) {
					got := rt.Run(func(task *Task) any {
						return Reduce(task, 1, n+1, 16, 0,
							func(i int) int { return i },
							func(a, b int) int { return a + b })
					}).(int)
					if want := n * (n + 1) / 2; got != want {
						t.Fatalf("sum = %d, want %d (seed %#x)", got, want, perturb.Seed())
					}
				})

				// Stalling bodies and a non-commutative combine: thieves
				// empty deques mid-loop, so splits land at random chunk
				// boundaries on top of the perturbation.
				t.Run("steals", func(t *testing.T) { checkLoopsUnderSteals(t, rt, seed) })

				t.Run("scan", func(t *testing.T) {
					in := make([]int, n)
					for i := range in {
						in[i] = i + 1
					}
					var out []int
					var total int
					rt.Run(func(task *Task) any {
						out, total = Scan(task, in, 32, 0, func(a, b int) int { return a + b })
						return nil
					})
					acc := 0
					for i := range in {
						if out[i] != acc {
							t.Fatalf("out[%d] = %d, want %d (seed %#x)", i, out[i], acc, perturb.Seed())
						}
						acc += in[i]
					}
					if total != acc {
						t.Fatalf("total = %d, want %d (seed %#x)", total, acc, perturb.Seed())
					}
				})
			})
		}
	}
}
