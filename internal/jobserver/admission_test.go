package jobserver

import (
	"context"
	"errors"
	"testing"
	"time"

	"icilk"
)

// TestSubmitShedAndLate covers the two overload outcomes of a job
// gated by composing Job with the runtime's admission controller: an
// error wrapping ErrShed for an admission rejection, and a future
// whose Err is context.DeadlineExceeded for a job cancelled mid-run by
// its deadline.
func TestSubmitShedAndLate(t *testing.T) {
	rt, err := icilk.New(icilk.Config{
		Workers: 2,
		Levels:  Levels,
		Admission: &icilk.AdmissionConfig{
			QueueCap: 4,
			Timeout:  200 * time.Microsecond, // sw takes ms: certain to miss
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	cfg := DefaultConfig()
	cfg.SWSize = 512 // several ms of work, far past the deadline
	srv, err := New(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adm := rt.Admission()

	// Shed: fill the mm level from outside, then submit an mm job.
	var held []icilk.AdmissionTicket
	for i := 0; i < 4; i++ {
		tk, err := adm.Acquire(LevelMM)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, tk)
	}
	if f, err := adm.Submit(srv.Job(0, 1)); !errors.Is(err, icilk.ErrShed) || f != nil {
		t.Fatalf("overloaded mm job: future %v, err %v, want nil and ErrShed", f, err)
	}
	for _, tk := range held {
		adm.Release(tk, false)
	}

	// Late: an sw job whose deadline is far below its service time is
	// cancelled mid-run.
	f, err := adm.Submit(srv.Job(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	f.Wait()
	if !errors.Is(f.Err(), context.DeadlineExceeded) {
		t.Fatalf("over-deadline sw job: Err = %v, want DeadlineExceeded", f.Err())
	}

	// The ungated path still completes the same job normally.
	if v := srv.Do(3, 2).Wait(); v == nil {
		t.Fatal("ungated sw job returned nil")
	}
}
