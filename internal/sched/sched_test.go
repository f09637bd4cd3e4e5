package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// allPolicies enumerates every scheduler for cross-policy tests.
var allPolicies = []PolicyKind{Prompt, Adaptive, AdaptiveAging, AdaptiveGreedy}

// fib computes Fibonacci with spawn/sync — the canonical fork-join
// smoke test.
func fib(t *Task, n int) int {
	if n < 2 {
		return n
	}
	var a, b int
	t.Spawn(func(ct *Task) { a = fib(ct, n-1) })
	b = fib(t, n-2)
	t.Sync()
	return a + b
}

func newTestRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	if cfg.Adaptive.Quantum == 0 {
		cfg.Adaptive = AdaptiveParams{Quantum: time.Millisecond, Delta: 0.5, Rho: 2}
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestFibAllPolicies(t *testing.T) {
	for _, pk := range allPolicies {
		pk := pk
		t.Run(pk.String(), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Workers: 4, Levels: 2, Policy: pk})
			got := rt.Run(func(task *Task) any { return fib(task, 15) }).(int)
			if got != 610 {
				t.Fatalf("fib(15) = %d, want 610", got)
			}
		})
	}
}

func TestNestedSpawns(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 3, Levels: 1, Policy: Prompt})
	var count atomic.Int64
	rt.Run(func(task *Task) any {
		for i := 0; i < 10; i++ {
			task.Spawn(func(ct *Task) {
				for j := 0; j < 10; j++ {
					ct.Spawn(func(*Task) { count.Add(1) })
				}
				ct.Sync()
			})
		}
		task.Sync()
		return nil
	})
	if got := count.Load(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
}

func TestFutureSameLevel(t *testing.T) {
	for _, pk := range allPolicies {
		pk := pk
		t.Run(pk.String(), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Workers: 2, Levels: 2, Policy: pk})
			got := rt.Run(func(task *Task) any {
				f := task.FutCreate(0, func(*Task) any { return 42 })
				return f.Get(task).(int) + 1
			}).(int)
			if got != 43 {
				t.Fatalf("got %d, want 43", got)
			}
		})
	}
}

func TestFutureCrossLevel(t *testing.T) {
	for _, pk := range allPolicies {
		pk := pk
		t.Run(pk.String(), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Workers: 2, Levels: 3, Policy: pk})
			got := rt.SubmitFuture(1, func(task *Task) any {
				lo := task.FutCreate(2, func(*Task) any { return "low" })
				hi := task.FutCreate(0, func(*Task) any { return "high" })
				return hi.Get(task).(string) + "/" + lo.Get(task).(string)
			}).Wait().(string)
			if got != "high/low" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestIOFuture(t *testing.T) {
	for _, pk := range allPolicies {
		pk := pk
		t.Run(pk.String(), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Workers: 2, Levels: 2, Policy: pk})
			iof := rt.NewIOFuture()
			go func() {
				time.Sleep(2 * time.Millisecond)
				iof.Complete("io-data")
			}()
			got := rt.Run(func(task *Task) any {
				return iof.Get(task)
			}).(string)
			if got != "io-data" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestManyConcurrentFutures(t *testing.T) {
	for _, pk := range allPolicies {
		pk := pk
		t.Run(pk.String(), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Workers: 4, Levels: 2, Policy: pk})
			const n = 200
			futs := make([]*Future, n)
			for i := 0; i < n; i++ {
				i := i
				futs[i] = rt.SubmitFuture(i%2, func(task *Task) any {
					iof := rt.NewIOFuture()
					go func() {
						time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
						iof.Complete(i)
					}()
					return iof.Get(task).(int) * 2
				})
			}
			for i, f := range futs {
				if got := f.Wait().(int); got != i*2 {
					t.Fatalf("fut %d = %d, want %d", i, got, i*2)
				}
			}
			if rt.Inflight() != 0 {
				t.Fatalf("inflight = %d after drain", rt.Inflight())
			}
		})
	}
}

// TestPromptAbandonsForHigherPriority verifies promptness: a worker
// grinding low-priority work abandons it when high-priority work
// appears. With a single worker this requires the frequent check —
// quantum-based schedulers would be stuck until reallocation.
func TestPromptAbandonsForHigherPriority(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 2, Policy: Prompt})

	var order []string
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	record := func(s string) {
		<-mu
		order = append(order, s)
		mu <- struct{}{}
	}

	started := make(chan struct{})
	lo := rt.SubmitFuture(1, func(task *Task) any {
		close(started)
		// Long low-priority loop with scheduling points.
		for i := 0; i < 2000; i++ {
			task.Yield()
			time.Sleep(10 * time.Microsecond)
		}
		record("low-done")
		return nil
	})
	<-started
	hi := rt.SubmitFuture(0, func(task *Task) any {
		record("high-done")
		return nil
	})
	hi.Wait()
	if lo.Done() {
		t.Fatal("low-priority task finished before high-priority one was even awaited")
	}
	lo.Wait()
	<-mu
	if len(order) != 2 || order[0] != "high-done" || order[1] != "low-done" {
		t.Fatalf("order = %v, want [high-done low-done]", order)
	}
}

func TestWasteReportAccumulates(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	rt.Run(func(task *Task) any { return fib(task, 12) })
	rep := rt.WasteReport()
	if rep.Work <= 0 {
		t.Fatalf("work time = %v, want > 0", rep.Work)
	}
	// Run returns when the root's future completes, which is before the
	// worker that ran it charges that last slice of work (and before an
	// idle worker finishes going to sleep): a reset can race those late
	// charges, so reset until one sticks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rt.ResetWaste()
		rep = rt.WasteReport()
		if rep.Work == 0 && rep.Steals == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after reset: %+v", rep)
		}
		runtime.Gosched()
	}
}

// TestSoloJobsNoFutileWakes: with one worker, each job submitted while
// it sleeps wakes it alone, and it takes that job, so no wake is futile.
func TestSoloJobsNoFutileWakes(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
	const jobs = 100
	for i := 0; i < jobs; i++ {
		for deadline := time.Now().Add(5 * time.Second); rt.bits.Sleepers() != 1; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("the worker never went to sleep")
			}
		}
		rt.SubmitFuture(0, func(task *Task) any { return fib(task, 10) }).Wait()
	}
	if rep := rt.WasteReport(); rep.FutileWakes != 0 || rep.Sleeps < jobs {
		t.Fatalf("%d futile wakes and %d sleeps over %d solo jobs, want 0 and at least %d",
			rep.FutileWakes, rep.Sleeps, jobs, jobs)
	}
}

func TestNonEmptyDequesGauge(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 1, Levels: 2, Policy: Prompt})
	iof := rt.NewIOFuture()
	// Submit several futures that block on I/O to build up suspended
	// state, then verify the gauge returns to zero after completion.
	futs := make([]*Future, 8)
	for i := range futs {
		futs[i] = rt.SubmitFuture(1, func(task *Task) any { return iof.Get(task) })
	}
	time.Sleep(5 * time.Millisecond)
	iof.Complete(nil)
	for _, f := range futs {
		f.Wait()
	}
	// Allow the workers to drain the resumable deques.
	deadline := time.Now().Add(time.Second)
	for rt.NonEmptyDeques(1) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("non-empty deques stuck at %d", rt.NonEmptyDeques(1))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRuntimeConfigValidation(t *testing.T) {
	if _, err := New(Config{Levels: 65}); err == nil {
		t.Fatal("expected error for Levels=65")
	}
}

func TestCloseIdempotent(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 2})
	rt.Run(func(task *Task) any { return nil })
	rt.Close()
	rt.Close()
}
