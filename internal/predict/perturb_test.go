//go:build icilk_debug

package predict

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icilk/internal/invariant/perturb"
)

// TestPerturbUpdatePredictOrdering re-runs the concurrent
// update/predict workload with seeded perturbation at the
// perturb.Predict points: Predict yields between entry and its table
// walk (so a racing Update can shift the history register and retrain
// or evict the entry it is about to read), and Update yields between
// choosing its provider from a history snapshot and CASing the entry
// (so a racing Update can advance the history underneath it). The
// packed-word protocol must keep every observable prediction
// internally consistent — estimate within field range, confidence
// within its counter range — and the counter identities exact, no
// matter where the schedule lands inside those windows.
func TestPerturbUpdatePredictOrdering(t *testing.T) {
	for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			perturb.Enable(seed)
			defer perturb.Disable()

			// Tiny tables so updaters constantly collide on slots and
			// the allocate/evict/retrain windows are hit for real.
			p, err := New(Config{BaseBits: 3, TableBits: 2, HistoryLengths: []int{1, 2}})
			if err != nil {
				t.Fatal(err)
			}
			const (
				updaters   = 3
				predictors = 2
				iters      = 800
			)
			var predictCalls atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < updaters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						c := Class{Op: uint8((w + i) % 7), Size: uint8(i % 3)}
						p.Update(c, time.Duration(100+(w*131+i*17)%900)*time.Microsecond)
					}
				}(w)
			}
			for w := 0; w < predictors; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						est, conf, ok := p.Predict(Class{Op: uint8(i % 7), Size: uint8(i % 3)})
						predictCalls.Add(1)
						if ok {
							if est < 0 || est > time.Duration(valueMask) {
								t.Errorf("torn estimate %v", est)
								return
							}
							if conf > ConfMax {
								t.Errorf("torn confidence %d", conf)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()

			if u := p.Updates(); u != updaters*iters {
				t.Fatalf("Updates = %d, want %d", u, updaters*iters)
			}
			if p.Predictions()+p.noPrediction.Load() != predictCalls.Load() {
				t.Fatalf("predictions %d + noPrediction %d != calls %d",
					p.Predictions(), p.noPrediction.Load(), predictCalls.Load())
			}
			if p.Misses() > p.Updates() {
				t.Fatalf("misses %d > updates %d", p.Misses(), p.Updates())
			}
			if base, tagged := hits(p); base+tagged != p.Predictions() {
				t.Fatalf("per-table hits %d != predictions %d", base+tagged, p.Predictions())
			}
		})
	}
}
