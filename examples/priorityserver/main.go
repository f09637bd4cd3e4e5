// Priorityserver demonstrates promptness: an interactive server whose
// latency-critical pings (priority 0) stay fast while bulk analytics
// jobs (priority 1) saturate every worker. Run it twice to compare —
// under the Prompt scheduler ping latency stays low because workers
// abandon bulk work the moment a ping arrives; under plain Adaptive
// I-Cilk pings wait out the allocator quantum.
//
// It then demonstrates overload protection: every request gets a
// deadline (late ones are cancelled at their next scheduling point),
// and an admission controller sheds excess bulk work at the door, so
// the demo ends with a good/late/shed breakdown.
//
//	go run ./examples/priorityserver            # Prompt I-Cilk
//	go run ./examples/priorityserver -adaptive  # Adaptive I-Cilk
package main

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"icilk"
	"icilk/internal/stats"
)

func main() {
	adaptive := flag.Bool("adaptive", false, "use the Adaptive I-Cilk scheduler")
	flag.Parse()

	sched := icilk.Prompt
	if *adaptive {
		sched = icilk.Adaptive
	}
	rt, err := icilk.New(icilk.Config{
		Workers:   2,
		Levels:    2,
		Scheduler: sched,
		// Admission control for part two: at most 8 in-flight requests
		// per level, 5ms deadline on each. rt.Submit bypasses the
		// controller, so part one is unaffected.
		Admission: &icilk.AdmissionConfig{
			QueueCap: 8,
			Timeout:  5 * time.Millisecond,
		},
	})
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	fmt.Printf("scheduler: %v\n", sched)

	// Bulk analytics: keep both workers busy with low-priority work
	// that hits scheduling points regularly (as compiled task-parallel
	// code would at every spawn).
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		rt.Submit(1, func(t *icilk.Task) any {
			for {
				select {
				case <-stop:
					return nil
				default:
				}
				crunch(t)
			}
		})
	}

	// Interactive pings at priority 0.
	lat := stats.NewRecorder(128)
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		rt.Submit(0, func(*icilk.Task) any { return nil }).Wait()
		lat.Record(time.Since(t0))
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)

	s := lat.Summarize()
	fmt.Printf("ping latency over %d requests, with both workers saturated by bulk jobs:\n", s.Count)
	fmt.Printf("  p50=%v  p95=%v  p99=%v  max=%v\n", s.Median, s.P95, s.P99, s.Max)
	fmt.Println("(compare -adaptive: reaction is bounded by the allocator quantum instead of")
	fmt.Println(" the next scheduling point, so the tail is roughly a quantum long)")

	// Part two: overload protection. Flood the bulk level far past its
	// admission capacity — the excess is rejected in microseconds with
	// icilk.ErrShed, never allocating a task context — then issue
	// deadline-bounded requests and count how each one ends.
	var good, late, shed int
	var shedErr error
	adm := rt.Admission()
	var admitted []*icilk.Future
	for i := 0; i < 64; i++ {
		f, err := adm.Submit(1, func(t *icilk.Task) any { crunch(t); return nil })
		if err != nil {
			shed++
			shedErr = err
			continue
		}
		admitted = append(admitted, f)
	}
	for i := 0; i < 20; i++ {
		f, err := adm.Submit(0, func(*icilk.Task) any { return nil })
		if err != nil {
			shed++
			continue
		}
		f.Wait()
		if f.Err() != nil {
			late++
		} else {
			good++
		}
	}
	// One request that cannot meet its deadline: SubmitWithDeadline
	// attaches a 1ms budget, cancellation unwinds it at a scheduling
	// point, and Future.Err reports why.
	slow := rt.SubmitWithDeadline(0, time.Millisecond, func(t *icilk.Task) any {
		for {
			crunch(t) // cancelled at a Yield once the deadline passes
		}
	})
	slow.Wait()
	if err := slow.Err(); err != nil {
		late++
		fmt.Printf("\nslow request cancelled: %v\n", err)
	}
	for _, f := range admitted {
		f.Wait()
		if f.Err() != nil {
			late++
		} else {
			good++
		}
	}
	fmt.Printf("overload protection (cap 8/level, 5ms deadline): good=%d late=%d shed=%d\n",
		good, late, shed)
	if shedErr != nil {
		fmt.Printf("a shed request reports: %v (errors.Is ErrShed: %v)\n",
			shedErr, errors.Is(shedErr, icilk.ErrShed))
	}
}

// crunch is ~50µs of work with a scheduling point at each call.
func crunch(t *icilk.Task) {
	x := 1.0
	for i := 0; i < 10000; i++ {
		x += 1.0 / x
	}
	t.Yield()
	_ = x
}
