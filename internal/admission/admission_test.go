package admission

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icilk/internal/invariant"
	"icilk/internal/metrics"
	"icilk/internal/sched"
)

// admittedSubmitExtra is TestAdmittedSubmitAllocBudget's pinned
// allocation cost of admission on an admitted request: the OnComplete
// release closure. Measured on a 2-vCPU guest: plain Submit+Wait 0.03
// objects/op, admitted 1.03.
const admittedSubmitExtra = 1.0

func newRT(t *testing.T, workers, levels int) *sched.Runtime {
	t.Helper()
	rt, err := sched.New(sched.Config{Workers: workers, Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestQueueCapPerLevel: a level at QueueCap sheds with ErrQueueFull
// until one of its requests is released, and the per-level counters
// record each outcome.
func TestQueueCapPerLevel(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := NewController(rt, Config{QueueCap: 2})

	tk1, err := c.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	tk2, err := c.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire(0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Acquire err = %v, want ErrQueueFull", err)
	}
	if !errors.Is(ErrQueueFull, ErrShed) {
		t.Fatal("ErrQueueFull must wrap ErrShed")
	}
	c.Release(tk1, false)
	if _, err := c.Acquire(0); err != nil {
		t.Fatalf("Acquire after Release err = %v", err)
	}
	c.Release(tk2, true)

	s := c.Stats()
	if s.PerLevel[0].Shed != 1 {
		t.Fatalf("shed = %d, want 1", s.PerLevel[0].Shed)
	}
	if s.PerLevel[0].Completed != 1 || s.PerLevel[0].TimedOut != 1 {
		t.Fatalf("completed=%d timedOut=%d, want 1/1",
			s.PerLevel[0].Completed, s.PerLevel[0].TimedOut)
	}
}

// TestPriorityDropShedsLowFirst is the core overload-protection
// property: as aggregate occupancy grows, the lowest level is shed
// while the highest is still admitted.
func TestPriorityDropShedsLowFirst(t *testing.T) {
	rt := newRT(t, 1, 2)
	// total capacity 16; threshold[0]=16, threshold[1]=8.
	c := NewController(rt, Config{QueueCap: 8})

	var held []Ticket
	for i := 0; i < 2; i++ {
		tk, err := c.Acquire(1)
		if err != nil {
			t.Fatalf("low-level Acquire %d under light load: %v", i, err)
		}
		held = append(held, tk)
	}
	for i := 0; i < 7; i++ { // aggregate now 9 > threshold[1]=8
		tk, err := c.Acquire(0)
		if err != nil {
			t.Fatalf("high-level Acquire %d: %v", i, err)
		}
		held = append(held, tk)
	}
	if _, err := c.Acquire(1); !errors.Is(err, ErrPriorityShed) {
		t.Fatalf("low-level Acquire under load err = %v, want ErrPriorityShed", err)
	}
	tk, err := c.Acquire(0) // occ[0]=8 <= cap, total 10 <= 16
	if err != nil {
		t.Fatalf("high-level Acquire under load err = %v, want admit", err)
	}
	held = append(held, tk)
	for _, tk := range held {
		c.Release(tk, false)
	}
	if got := c.Stats().Total; got != 0 {
		t.Fatalf("occupancy after full release = %d, want 0", got)
	}
}

// TestShedPathDoesNotAllocate is an acceptance criterion: a rejected
// request must fail without allocating — no task context, no error
// value, nothing — whether its own level is full (ErrQueueFull) or the
// aggregate is past its level's threshold (ErrPriorityShed), through
// Submit and through Acquire alike.
func TestShedPathDoesNotAllocate(t *testing.T) {
	rt := newRT(t, 1, 2)
	// total capacity 2; threshold[0]=2, threshold[1]=1.
	c := NewController(rt, Config{QueueCap: 1})
	tk, err := c.Acquire(0) // fill level 0; aggregate 1 sheds level 1
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(tk, false)

	body := func(task *sched.Task) any { return nil }
	for _, tc := range []struct {
		level int
		want  error
	}{{0, ErrQueueFull}, {1, ErrPriorityShed}} {
		if n := testing.AllocsPerRun(200, func() {
			if _, err := c.Submit(tc.level, body); !errors.Is(err, tc.want) {
				t.Fatalf("Submit(%d) err = %v, want %v", tc.level, err, tc.want)
			}
		}); n != 0 {
			t.Fatalf("%v Submit allocates %.1f objects/op, want 0", tc.want, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := c.Acquire(tc.level); !errors.Is(err, tc.want) {
				t.Fatalf("Acquire(%d) err = %v, want %v", tc.level, err, tc.want)
			}
		}); n != 0 {
			t.Fatalf("%v Acquire allocates %.1f objects/op, want 0", tc.want, n)
		}
	}
}

// TestAdmittedSubmitAllocBudget pins what admission adds to an
// admitted request: a Submit+Wait through the controller costs a plain
// Runtime Submit+Wait (its future's share of a block) plus the one
// OnComplete release closure, and nothing else.
func TestAdmittedSubmitAllocBudget(t *testing.T) {
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation accounting differs under -race and icilk_debug")
	}
	rt := newRT(t, 2, 1)
	c := NewController(rt, Config{})
	body := func(*sched.Task) any { return nil }
	const ops = 100
	measure := func(submit func() *sched.Future) float64 {
		round := func() {
			for i := 0; i < ops; i++ {
				submit().Wait()
			}
		}
		round() // warm the free lists
		return testing.AllocsPerRun(20, round) / ops
	}
	plain := measure(func() *sched.Future { return rt.SubmitFuture(0, body) })
	admitted := measure(func() *sched.Future {
		f, err := c.Submit(0, body)
		if err != nil {
			t.Fatal(err)
		}
		return f
	})
	// 0.02 absorbs which of the 100 submissions start a new future block.
	if admitted-plain > admittedSubmitExtra+0.02 {
		t.Fatalf("admitted Submit+Wait allocates %.3f objects/op, plain %.3f: budget is plain + %.2f", admitted, plain, admittedSubmitExtra)
	}
	t.Logf("plain %.3f, admitted %.3f objects/op", plain, admitted)
}

func TestDegraded(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := NewController(rt, Config{QueueCap: 1})
	tk, err := c.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < degradedAfter-1; i++ {
		c.Acquire(0) // shed
		if c.Degraded() {
			t.Fatalf("degraded after only %d sheds", i+1)
		}
	}
	c.Acquire(0)
	if !c.Degraded() {
		t.Fatalf("not degraded after %d consecutive sheds", degradedAfter)
	}
	// One admission resets the streak.
	c.Release(tk, false)
	tk, err = c.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Degraded() {
		t.Fatal("still degraded after an admission")
	}
	c.Release(tk, false)
}

// TestSubmitReleasesOnEveryPath covers the three completion paths:
// normal return, deadline cancellation mid-run, and deadline passing
// while the request is still queued (body never runs).
func TestSubmitReleasesOnEveryPath(t *testing.T) {
	rt := newRT(t, 2, 1)
	c := NewController(rt, Config{QueueCap: 64, Timeout: 20 * time.Millisecond})

	// Normal completion.
	f, err := c.Submit(0, func(task *sched.Task) any { return "ok" })
	if err != nil {
		t.Fatal(err)
	}
	if v := f.Wait(); v != "ok" {
		t.Fatalf("value = %v", v)
	}

	// Cancelled mid-run.
	f, err = c.Submit(0, func(task *sched.Task) any {
		for {
			task.Yield()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Wait()
	if err := f.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want DeadlineExceeded", err)
	}

	waitOccupancyZero(t, c)
	s := c.Stats()
	if s.PerLevel[0].Completed != 1 || s.PerLevel[0].TimedOut != 1 {
		t.Fatalf("completed=%d timedOut=%d, want 1/1",
			s.PerLevel[0].Completed, s.PerLevel[0].TimedOut)
	}

	// Doomed while queued: one worker, the first request hogs it past
	// the second's deadline; the second's body must never run but its
	// occupancy must still be released.
	rt2 := newRT(t, 1, 1)
	c2 := NewController(rt2, Config{QueueCap: 64, Timeout: 15 * time.Millisecond})
	release := make(chan struct{})
	// Pin the worker with a deadline-free direct submission: an
	// admission-submitted hog would share the 15ms deadline, and its
	// own cancellation could free the worker just before the queued
	// request's timer fires — a racy microsecond window in which the
	// doomed body would genuinely run.
	hog := rt2.SubmitFuture(0, func(task *sched.Task) any {
		for {
			select {
			case <-release:
				return nil
			default:
				task.Yield()
			}
		}
	})
	var ran atomic.Bool
	queued, err := c2.Submit(0, func(task *sched.Task) any {
		ran.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the worker until the queued request's deadline is well past,
	// then free it: the worker pops the doomed deque and abandons it
	// without running the body.
	time.Sleep(50 * time.Millisecond)
	close(release)
	hog.Wait()
	queued.Wait()
	if ran.Load() {
		t.Fatal("doomed queued request ran its body")
	}
	if err := queued.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Err() = %v, want DeadlineExceeded", err)
	}
	waitOccupancyZero(t, c2)
}

func waitOccupancyZero(t *testing.T, c *Controller) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Total != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("occupancy stuck at %d", c.Stats().Total)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentSubmitShedCancel is the acceptance-criterion race
// test: many goroutines submitting through a small-capacity
// controller with short deadlines, so admissions, sheds, mid-run
// cancellations, and queued-past-deadline abandonments all interleave.
// Run with -race.
func TestConcurrentSubmitShedCancel(t *testing.T) {
	rt := newRT(t, 4, 2)
	c := NewController(rt, Config{QueueCap: 16, Timeout: 2 * time.Millisecond})
	const (
		goroutines = 8
		perG       = 100
	)
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var futs []*sched.Future
			for i := 0; i < perG; i++ {
				lvl := (g + i) % 2
				f, err := c.Submit(lvl, func(task *sched.Task) any {
					for j := 0; j < 20; j++ {
						task.Spawn(func(ct *sched.Task) {})
						task.Sync()
					}
					return nil
				})
				if err != nil {
					if !errors.Is(err, ErrShed) {
						t.Error(err)
						return
					}
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				futs = append(futs, f)
			}
			for _, f := range futs {
				f.Wait()
			}
		}(g)
	}
	wg.Wait()
	waitOccupancyZero(t, c)

	if got := admitted.Load() + shed.Load(); got != goroutines*perG {
		t.Fatalf("admitted+shed = %d, want %d", got, goroutines*perG)
	}
	s := c.Stats()
	var finished int64
	for _, ls := range s.PerLevel {
		finished += ls.Completed + ls.TimedOut
	}
	if finished != admitted.Load() {
		t.Fatalf("completed+timedOut = %d, want %d admitted", finished, admitted.Load())
	}
	t.Logf("admitted=%d shed=%d", admitted.Load(), shed.Load())
}

// TestConfigValidation: a non-positive QueueCap takes the default, so
// every Config is usable.
func TestConfigValidation(t *testing.T) {
	rt := newRT(t, 1, 2)
	for _, capacity := range []int{0, -1} {
		if got := NewController(rt, Config{QueueCap: capacity}).cfg.QueueCap; got != 256 {
			t.Fatalf("QueueCap %d became %d, want the default 256", capacity, got)
		}
	}
}

func TestRegisterMetrics(t *testing.T) {
	rt := newRT(t, 1, 2)
	c := NewController(rt, Config{QueueCap: 4})
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	tk, err := c.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	c.Acquire(1) // shed? no — cap 4; force one shed at level 1
	for i := 0; i < 4; i++ {
		c.Acquire(1)
	}
	out := reg.String()
	for _, want := range []string{
		"icilk_admission_occupancy_total",
		`icilk_admission_queue_depth{level="1"}`,
		`icilk_admission_shed_total{level="1"}`,
		"icilk_admission_degraded",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	c.Release(tk, false)
}
