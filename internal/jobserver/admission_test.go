package jobserver

import (
	"context"
	"errors"
	"testing"
	"time"

	"icilk"
)

// TestTryDoShedAndLate covers the two overload outcomes of TryDo: an
// error wrapping ErrShed for an admission rejection, and a future
// whose Err is context.DeadlineExceeded for a job cancelled by its
// level's deadline.
func TestTryDoShedAndLate(t *testing.T) {
	timeouts := make([]time.Duration, Levels)
	timeouts[LevelSW] = 200 * time.Microsecond // sw takes ms: certain to miss
	rt, err := icilk.New(icilk.Config{
		Workers: 2,
		Levels:  Levels,
		Admission: &icilk.AdmissionConfig{
			Policy:          icilk.ShedTailDrop,
			QueueCap:        4,
			PerLevelTimeout: timeouts,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	cfg := DefaultConfig()
	cfg.SWSize = 512 // several ms of work, far past the sw deadline
	srv, err := New(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetAdmission(rt.Admission())

	// Shed: fill the mm level from outside, then submit an mm job.
	var held []icilk.AdmissionTicket
	for i := 0; i < 4; i++ {
		tk, err := rt.Admission().Acquire(LevelMM)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, tk)
	}
	if f, err := srv.TryDo(0, 1); !errors.Is(err, icilk.ErrShed) || f != nil {
		t.Fatalf("overloaded mm job: future %v, err %v, want nil and ErrShed", f, err)
	}
	for _, tk := range held {
		rt.Admission().Release(tk, false)
	}

	// Late: an sw job whose deadline is far below its service time is
	// cancelled mid-run.
	f, err := srv.TryDo(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	f.Wait()
	if !errors.Is(f.Err(), context.DeadlineExceeded) {
		t.Fatalf("over-deadline sw job: Err = %v, want DeadlineExceeded", f.Err())
	}

	// A class with no deadline still completes normally.
	f, err = srv.TryDo(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v := f.Wait(); v == nil || f.Err() != nil {
		t.Fatalf("fib job: value %v, Err %v", v, f.Err())
	}
}
