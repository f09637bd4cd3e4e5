package sched

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"icilk/internal/invariant"
)

// incRec and negRec are two fork records of different types: argument
// in, result out, and (incRec) a pointer of the user's.
type incRec struct {
	in, out int
	ref     *[64]byte
}

func (r *incRec) RunFrame(*Task) { r.out = r.in + 1 }

type negRec struct{ in, out int64 }

func (r *negRec) RunFrame(*Task) { r.out = -r.in }

// forkInc is the record form of a fork, whole: take, spawn, sync, read,
// park.
func forkInc(t *Task, i int) int {
	r := TakeFrame[incRec](t)
	r.in = i
	t.SpawnFrame(r)
	t.Sync()
	out := r.out
	ParkFrame(t, r)
	return out
}

// fibRec is fib over records, the shape jobserver.Fib has.
type fibRec struct{ n, a int }

func (r *fibRec) RunFrame(t *Task) { r.a = fibRecs(t, r.n) }

func fibRecs(t *Task, n int) int {
	if n < 2 {
		return n
	}
	r := TakeFrame[fibRec](t)
	r.n = n - 1
	t.SpawnFrame(r)
	b := fibRecs(t, n-2)
	t.Sync()
	a := r.a
	ParkFrame(t, r)
	return a + b
}

// parked reports whether n holds r, i.e. whether a TakeFrame on that
// context could return it.
func parked(n *node, r any) bool {
	for _, p := range n.recs {
		if p == r {
			return true
		}
	}
	return false
}

func TestFrameRecords(t *testing.T) {
	// Measured 0; the 0.05 is TestSpawnSyncAllocFree's allowance.
	t.Run("steady state allocates nothing", func(t *testing.T) {
		if invariant.Race || invariant.Enabled {
			t.Skip("allocation accounting differs under -race and icilk_debug")
		}
		rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
		d := startDriver(rt)
		defer d.stop()
		const forks = 100
		round := func() {
			d.do(func(task *Task) {
				for i := 0; i < forks; i++ {
					if got := forkInc(task, i); got != i+1 {
						t.Errorf("fork %d returned %d", i, got)
					}
				}
			})
		}
		round() // warms the free lists and parks the first record
		if perOp := testing.AllocsPerRun(20, round) / forks; perOp > 0.05 {
			t.Errorf("take-spawn-sync-park allocates %.3f objects/fork, want 0", perOp)
		}
	})

	// A pop that gave up on a mismatched top would allocate on every
	// take here: whichever type was parked last covers the other.
	t.Run("two types alternating both hit", func(t *testing.T) {
		rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
		rt.Run(func(task *Task) any {
			a, b := TakeFrame[incRec](task), TakeFrame[negRec](task)
			ParkFrame(task, a)
			ParkFrame(task, b)
			for i := 0; i < 8; i++ {
				a2 := TakeFrame[incRec](task)
				a2.in = i
				task.SpawnFrame(a2)
				task.Sync()
				if a2 != a || a2.out != i+1 {
					t.Errorf("round %d: incRec %p (out %d), want the parked %p (out %d)", i, a2, a2.out, a, i+1)
				}
				ParkFrame(task, a2)
				b2 := TakeFrame[negRec](task)
				b2.in = int64(i)
				task.SpawnFrame(b2)
				task.Sync()
				if b2 != b || b2.out != -int64(i) {
					t.Errorf("round %d: negRec %p (out %d), want the parked %p (out %d)", i, b2, b2.out, b, -i)
				}
				ParkFrame(task, b2)
			}
			return nil
		})
	})

	t.Run("the cap bounds what a context parks", func(t *testing.T) {
		rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
		rt.Run(func(task *Task) any {
			recs := make([]*incRec, frameRecCap+8)
			for i := range recs {
				recs[i] = TakeFrame[incRec](task)
			}
			for _, r := range recs {
				ParkFrame(task, r)
			}
			if got := len(task.n.recs); got != frameRecCap {
				t.Errorf("context holds %d records after %d were parked, want %d", got, len(recs), frameRecCap)
			}
			for i, r := range recs {
				if got, want := parked(task.n, r), i < frameRecCap; got != want {
					t.Errorf("record %d parked = %v, want %v", i, got, want)
				}
			}
			return nil
		})
	})

	// The context goes to a free list with the record on it; if parking
	// had not zeroed the record, the buffer would stay reachable.
	t.Run("a parked record pins nothing", func(t *testing.T) {
		rt := newTestRuntime(t, Config{Workers: 1, Levels: 1, Policy: Prompt})
		freed := make(chan struct{})
		rt.Run(func(task *Task) any {
			r := TakeFrame[incRec](task)
			r.in, r.ref = 41, new([64]byte)
			runtime.SetFinalizer(r.ref, func(*[64]byte) { close(freed) })
			task.SpawnFrame(r)
			task.Sync()
			ParkFrame(task, r)
			if !parked(task.n, r) || *r != (incRec{}) {
				t.Errorf("after ParkFrame: parked = %v, record = %+v, want parked and zero", parked(task.n, r), *r)
			}
			return nil
		})
		deadline := time.After(5 * time.Second)
		for {
			runtime.GC()
			select {
			case <-freed:
				return
			case <-deadline:
				t.Fatal("the buffer a parked record referenced was still reachable after 5 s of GCs")
			case <-time.After(time.Millisecond):
			}
		}
	})

	t.Run("a called frame parks on the caller's context", func(t *testing.T) {
		rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
		rt.Run(func(task *Task) any {
			var r *incRec
			task.Call(func(ft *Task) {
				r = TakeFrame[incRec](ft)
				r.in = 1
				ft.SpawnFrame(r)
				ft.Sync()
				ParkFrame(ft, r)
			})
			if got := TakeFrame[incRec](task); got != r {
				t.Errorf("TakeFrame on the caller returned %p, want %p, the record its called frame parked", got, r)
			}
			return nil
		})
	})

	// The root is stolen from under its child, waits out the deadline
	// and unwinds at its Sync with the child still running. The child
	// writes its record until the unwind has joined it, which happens
	// in runBody, below the fork site: a fork site that parked (and so
	// zeroed) the record on its way out would race with that write, and
	// the next TakeFrame on the context would hand a second fork a
	// record the straggler still owns.
	t.Run("a cancelled fork does not park", func(t *testing.T) {
		rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
		var (
			ctx     *node
			taken   *spinRec
			reached bool
		)
		f := rt.SubmitFutureWithDeadline(0, 20*time.Millisecond, func(task *Task) any {
			ctx = task.n
			taken = TakeFrame[spinRec](task)
			task.SpawnFrame(taken)
			for task.Err() == nil {
				runtime.Gosched()
			}
			taken.atSync.Store(true)
			task.Sync()
			reached = true
			ParkFrame(task, taken)
			return nil
		})
		f.Wait()
		if err := f.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err() = %v, want DeadlineExceeded", err)
		}
		if taken == nil {
			t.Fatal("the deadline fired before the root forked")
		}
		if reached {
			t.Error("the root ran past a Sync it reached cancelled")
		}
		if parked(ctx, taken) {
			t.Error("the unwound fork's record is parked: the next TakeFrame on this context returns it")
		}
		if taken.spins == 0 {
			t.Error("the child never ran")
		}
	})

	// Records under steals, on every policy, and a Close that leaves no
	// goroutine behind with records parked on the free-listed contexts.
	t.Run("fib over reused records", func(t *testing.T) {
		for _, pk := range allPolicies {
			t.Run(pk.String(), func(t *testing.T) {
				before := runtime.NumGoroutine()
				rt := newTestRuntime(t, Config{Workers: 4, Levels: 1, Policy: pk})
				for i := 0; i < 8; i++ {
					if got := rt.Run(func(task *Task) any { return fibRecs(task, 15) }); got != 610 {
						t.Fatalf("run %d: fib(15) = %v, want 610", i, got)
					}
				}
				rt.Close()
				waitGoroutines(t, before)
			})
		}
	})
}

// spinRec is a child that runs, writing its record, until its parent
// is at its Sync and then on until its tree's cancellation unwinds it.
type spinRec struct {
	atSync atomic.Bool
	spins  int
}

func (r *spinRec) RunFrame(t *Task) {
	for !r.atSync.Load() {
		r.spins++
		runtime.Gosched()
	}
	for {
		r.spins++
		t.Yield()
	}
}

// TestFrameRecordsMisuseTripsInvariant: each precondition of ParkFrame
// has its own assertion in icilk_debug builds.
func TestFrameRecordsMisuseTripsInvariant(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("ParkFrame's preconditions are checked only in icilk_debug builds")
	}
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 1, Policy: Prompt})
	mustTrip := func(want string, park func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Errorf("ParkFrame panicked with %q, want a violation mentioning %q", msg, want)
			}
		}()
		park()
	}

	t.Run("child outstanding", func(t *testing.T) {
		rt.Run(func(task *Task) any {
			var release atomic.Bool
			r := TakeFrame[incRec](task)
			task.Spawn(func(*Task) {
				for !release.Load() {
					runtime.Gosched()
				}
			})
			// Stolen from under the spinning child: it is still out.
			mustTrip("children outstanding", func() { ParkFrame(task, r) })
			release.Store(true)
			task.Sync()
			return nil
		})
	})

	t.Run("parked twice", func(t *testing.T) {
		rt.Run(func(task *Task) any {
			r := TakeFrame[incRec](task)
			ParkFrame(task, r)
			mustTrip("already parked", func() { ParkFrame(task, r) })
			return nil
		})
	})
}
