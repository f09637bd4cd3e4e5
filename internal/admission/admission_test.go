package admission

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icilk/internal/metrics"
	"icilk/internal/sched"
)

func newRT(t *testing.T, workers, levels int) *sched.Runtime {
	t.Helper()
	rt, err := sched.New(sched.Config{Workers: workers, Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func newCtl(t *testing.T, rt *sched.Runtime, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTailDropCapacity(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{Policy: TailDrop, QueueCap: 2})

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
	c := newCtl(t, rt, Config{Policy: PriorityDrop, QueueCap: 8})

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

// TestCoDelTripsUnderSustainedSojourn unit-tests the sojourn
// estimator with explicit clocks: a full interval whose minimum
// sojourn stays above target flips dropping on; one under-target
// observation in a later interval flips it off.
func TestCoDelTripsUnderSustainedSojourn(t *testing.T) {
	var cs codelState
	cs.init()
	ms := int64(time.Millisecond)

	now := int64(1_000_000_000)
	cs.sample(now, 20*ms) // starts the interval
	if cs.dropping.Load() {
		t.Fatal("dropping before a full interval elapsed")
	}
	for i := int64(1); i <= 9; i++ {
		cs.sample(now+i*10*ms, 20*ms)
	}
	// Cross the interval boundary with another over-target sojourn.
	cs.sample(now+101*ms, 30*ms)
	if !cs.dropping.Load() {
		t.Fatal("not dropping after a full over-target interval")
	}
	// An under-target sojourn in the next interval clears it.
	cs.sample(now+150*ms, 1*ms)
	cs.sample(now+202*ms, 2*ms) // rolls the interval
	if cs.dropping.Load() {
		t.Fatal("still dropping after an under-target interval")
	}
}

func TestCoDelControllerSheds(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{Policy: CoDel, QueueCap: 64})
	// Force the dropping state directly (the estimator has its own
	// tests above) with the interval still open: arrivals are shed.
	cs := &c.lvl[0].codel
	cs.dropping.Store(true)
	cs.intervalEnd.Store(time.Now().Add(time.Hour).UnixNano())
	if _, err := c.Acquire(0); !errors.Is(err, ErrSojourn) {
		t.Fatalf("Acquire err = %v, want ErrSojourn", err)
	}
	// Once the interval is stale — the latch scenario: the backlog
	// drained, nothing was admitted, so no sample ever rolled it — the
	// next arrival must be admitted as a probe, and the sample-free
	// interval must clear dropping instead of shedding forever.
	cs.intervalEnd.Store(1)
	tk, err := c.Acquire(0)
	if err != nil {
		t.Fatalf("probe Acquire err = %v, want admit", err)
	}
	if cs.dropping.Load() {
		t.Fatal("dropping not cleared by a sample-free interval")
	}
	c.Release(tk, false)
	tk, err = c.Acquire(0)
	if err != nil {
		t.Fatalf("Acquire after recovery err = %v, want admit", err)
	}
	c.Release(tk, false)
}

// TestCoDelProbeUnlatchesAfterDrain is the regression test for the
// shed latch: sojourns are sampled only for admitted requests, so a
// dropping level with its backlog drained produces no samples and —
// without the probe path — would shed 100% of arrivals until process
// restart.
func TestCoDelProbeUnlatchesAfterDrain(t *testing.T) {
	var cs codelState
	cs.init()
	ms := int64(time.Millisecond)
	now := int64(1_000_000_000)

	cs.sample(now, 20*ms)        // opens the interval
	cs.sample(now+101*ms, 30*ms) // rolls it: dropping on
	if !cs.dropping.Load() {
		t.Fatal("not dropping after a full over-target interval")
	}
	// Backlog drains; no further samples arrive. Long after the
	// interval expired, an arrival must be admitted as a probe and the
	// sample-free interval must clear dropping.
	if cs.shouldShed(now + 500*ms) {
		t.Fatal("arrival after a sample-free interval was shed")
	}
	if cs.dropping.Load() {
		t.Fatal("dropping still latched after a sample-free interval")
	}
	// The level stays open afterwards.
	if cs.shouldShed(now + 501*ms) {
		t.Fatal("arrival shed after dropping cleared")
	}
}

// TestCoDelProbeUnderSustainedOverload: while the queue is genuinely
// standing, the probe keeps the estimator fed without reopening the
// level — one arrival per interval is admitted, the rest shed.
func TestCoDelProbeUnderSustainedOverload(t *testing.T) {
	var cs codelState
	cs.init()
	ms := int64(time.Millisecond)
	now := int64(1_000_000_000)

	cs.sample(now, 20*ms)        // opens [now, now+100ms)
	cs.sample(now+101*ms, 30*ms) // rolls: dropping on, end now+201ms
	if !cs.dropping.Load() {
		t.Fatal("not dropping after a full over-target interval")
	}
	// Inside the open interval every arrival sheds.
	if !cs.shouldShed(now + 150*ms) {
		t.Fatal("arrival inside the interval was not shed")
	}
	// An admitted probe observes a still-over-target sojourn.
	cs.sample(now+150*ms, 40*ms)
	// The interval expires: the first arrival past it is the probe...
	if cs.shouldShed(now + 250*ms) {
		t.Fatal("probe arrival was shed")
	}
	// ...and the over-target minimum keeps dropping latched, so
	// followers in the fresh interval shed again.
	if !cs.dropping.Load() {
		t.Fatal("dropping cleared despite sustained over-target sojourns")
	}
	if !cs.shouldShed(now + 251*ms) {
		t.Fatal("follower admitted while still dropping")
	}
}

// TestInlineServiceTimeDoesNotTripCoDel: Release used to feed raw
// service time into the sojourn estimator, so any level whose normal
// per-request cost exceeded the CoDel target tripped dropping with
// zero queueing. Inline tickets observe no wait and must leave the
// estimator alone.
func TestInlineServiceTimeDoesNotTripCoDel(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{Policy: CoDel, QueueCap: 64})
	for i := 0; i < 3; i++ {
		tk, err := c.Acquire(0)
		if err != nil {
			t.Fatalf("Acquire shed on an unqueued level: %v", err)
		}
		time.Sleep(2 * codelTarget) // "service" far above target
		c.Release(tk, false)
	}
	if cs := &c.lvl[0].codel; cs.intervalEnd.Load() != 0 || cs.minSojourn.Load() != noSojourn {
		t.Fatal("inline service time reached the sojourn estimator")
	}
}

// TestSubmitClassArrivalFeedsSojourn: a caller-supplied arrival time
// makes the pre-admission wait part of the sojourn CoDel sees, so
// requests that waited 50ms before reaching the controller trip it
// even though the runtime runs them at once.
func TestSubmitClassArrivalFeedsSojourn(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{Policy: CoDel, QueueCap: 64})
	cs := &c.lvl[0].codel
	body := func(*sched.Task) any { return nil }
	deadline := time.Now().Add(5 * time.Second)
	for !cs.dropping.Load() {
		if time.Now().After(deadline) {
			t.Fatal("sustained over-target arrival waits never tripped dropping")
		}
		f, err := c.SubmitClass(0, levelClass(0), time.Now().Add(-50*time.Millisecond), body)
		if err == nil {
			f.Wait()
		} else if !errors.Is(err, ErrSojourn) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedPathDoesNotAllocate is an acceptance criterion: a rejected
// request must fail without allocating — no task context, no error
// value, nothing.
func TestShedPathDoesNotAllocate(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{Policy: TailDrop, QueueCap: 1})
	tk, err := c.Acquire(0) // fill the level
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(tk, false)

	body := func(task *sched.Task) any { return nil }
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.Submit(0, body); !errors.Is(err, ErrShed) {
			t.Fatal("expected shed")
		}
	}); n != 0 {
		t.Fatalf("shed Submit allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.Acquire(0); !errors.Is(err, ErrShed) {
			t.Fatal("expected shed")
		}
	}); n != 0 {
		t.Fatalf("shed Acquire allocates %.1f objects/op, want 0", n)
	}

	// The CoDel shed path (dropping latched, interval open) reads the
	// clock but must not allocate either.
	c2 := newCtl(t, rt, Config{Policy: CoDel, QueueCap: 1})
	c2.lvl[0].codel.dropping.Store(true)
	c2.lvl[0].codel.intervalEnd.Store(time.Now().Add(time.Hour).UnixNano())
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c2.Acquire(0); !errors.Is(err, ErrSojourn) {
			t.Fatal("expected sojourn shed")
		}
	}); n != 0 {
		t.Fatalf("CoDel shed Acquire allocates %.1f objects/op, want 0", n)
	}
}

func TestDegraded(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{Policy: TailDrop, QueueCap: 1})
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
	c := newCtl(t, rt, Config{QueueCap: 64, Timeout: 20 * time.Millisecond})

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
	c2 := newCtl(t, rt2, Config{QueueCap: 64, Timeout: 15 * time.Millisecond})
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
	c := newCtl(t, rt, Config{
		Policy:   PriorityDrop,
		QueueCap: 16,
		Timeout:  2 * time.Millisecond,
	})
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

func TestConfigValidation(t *testing.T) {
	rt := newRT(t, 1, 2)
	if _, err := NewController(rt, Config{Policy: Predictive + 1}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRegisterMetrics(t *testing.T) {
	rt := newRT(t, 1, 2)
	c := newCtl(t, rt, Config{QueueCap: 4})
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
