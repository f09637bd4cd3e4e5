//go:build icilk_debug

package fifoq

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"icilk/internal/epoch"
	"icilk/internal/invariant/perturb"
)

// TestPerturbConservation re-runs the exactly-once delivery workload
// with seeded perturbation inside the queue itself: Enqueue and
// Dequeue yield between their ticket fetch-and-add and the cell
// publish/consume, stretching the poison-protocol windows (overrunning
// dequeuers racing slow enqueuers) and the segment unlinking /
// epoch-recycling machinery, whose consumed-count invariant is armed
// in this build.
func TestPerturbConservation(t *testing.T) {
	for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			perturb.Enable(seed)
			defer perturb.Disable()

			col := epoch.NewCollector()
			q := New[*[2]int](col)
			const producers = 3
			const perProducer = 600

			var consumeMu sync.Mutex
			var consumed [][2]int

			var wg sync.WaitGroup
			done := make(chan struct{})
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					part := col.Register()
					for {
						if v, ok := q.Dequeue(part); ok {
							consumeMu.Lock()
							consumed = append(consumed, *v)
							consumeMu.Unlock()
							continue
						}
						select {
						case <-done:
							for {
								v, ok := q.Dequeue(part)
								if !ok {
									return
								}
								consumeMu.Lock()
								consumed = append(consumed, *v)
								consumeMu.Unlock()
							}
						default:
							runtime.Gosched() // don't starve producers on 1 CPU
						}
					}
				}()
			}

			var pwg sync.WaitGroup
			for p := 0; p < producers; p++ {
				pwg.Add(1)
				go func(p int) {
					defer pwg.Done()
					part := col.Register()
					for i := 0; i < perProducer; i++ {
						q.Enqueue(part, &[2]int{p, i})
					}
				}(p)
			}
			pwg.Wait()
			close(done)
			wg.Wait()

			if len(consumed) != producers*perProducer {
				t.Fatalf("consumed %d, want %d", len(consumed), producers*perProducer)
			}
			seen := make([]map[int]bool, producers)
			for p := range seen {
				seen[p] = make(map[int]bool)
			}
			for _, v := range consumed {
				p, seq := v[0], v[1]
				if seen[p][seq] {
					t.Fatalf("producer %d seq %d delivered twice", p, seq)
				}
				seen[p][seq] = true
			}
			for p := range seen {
				if len(seen[p]) != perProducer {
					t.Fatalf("producer %d: delivered %d of %d", p, len(seen[p]), perProducer)
				}
			}
		})
	}
}

// TestPerturbStrictOrderSingleConsumer asserts the sharper FIFO
// property under perturbation: one consumer sees each producer's items
// strictly in enqueue order even while the enqueuers are being paused
// mid-publish (the consumer must wait out or poison claimed-but-empty
// cells without reordering).
func TestPerturbStrictOrderSingleConsumer(t *testing.T) {
	for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			perturb.Enable(seed)
			defer perturb.Disable()

			col := epoch.NewCollector()
			q := New[*[2]int](col)
			const producers = 4
			const perProducer = 400

			var pwg sync.WaitGroup
			for p := 0; p < producers; p++ {
				pwg.Add(1)
				go func(p int) {
					defer pwg.Done()
					part := col.Register()
					for i := 0; i < perProducer; i++ {
						q.Enqueue(part, &[2]int{p, i})
					}
				}(p)
			}

			part := col.Register()
			next := make([]int, producers)
			got := 0
			for got < producers*perProducer {
				v, ok := q.Dequeue(part)
				if !ok {
					runtime.Gosched() // don't starve producers on 1 CPU
					continue
				}
				p, seq := v[0], v[1]
				if seq != next[p] {
					t.Fatalf("producer %d: got seq %d, want %d (FIFO violated)", p, seq, next[p])
				}
				next[p]++
				got++
			}
			pwg.Wait()
			if !q.Empty() {
				t.Fatal("queue not empty after drain")
			}
		})
	}
}
