package emailserver

import (
	"context"
	"errors"
	"testing"
	"time"

	"icilk"
)

// gated builds a server on a runtime whose admission controller has
// one slot per level and the given deadline.
func gated(t *testing.T, timeout time.Duration) (*Server, *icilk.AdmissionController) {
	t.Helper()
	rt, err := icilk.New(icilk.Config{
		Workers: 2,
		Levels:  Levels,
		Admission: &icilk.AdmissionConfig{
			QueueCap: 1,
			Timeout:  timeout,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv, err := New(rt, Config{Users: 4})
	if err != nil {
		t.Fatal(err)
	}
	return srv, rt.Admission()
}

// TestSubmitShedAndLate covers the overload outcomes of an
// operation gated by composing Request with the runtime's admission
// controller: with a level at capacity it returns an error wrapping
// ErrShed — per level, and only until load drains — and an operation
// cancelled by its deadline yields a future whose Err is
// context.DeadlineExceeded.
func TestSubmitShedAndLate(t *testing.T) {
	srv, adm := gated(t, 0)
	submit := func(op int) (*icilk.Future, error) {
		return adm.Submit(srv.Request(op, 1, 0))
	}

	tk, err := adm.Acquire(LevelSend)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := submit(0); !errors.Is(err, icilk.ErrShed) || f != nil {
		t.Fatalf("overloaded send: future %v, err %v, want nil and ErrShed", f, err)
	}
	adm.Release(tk, false)

	f, err := submit(0)
	if err != nil {
		t.Fatalf("send after release: %v", err)
	}
	f.Wait()
	if f.Err() != nil || srv.MailboxLen(1) != 1 {
		t.Fatalf("send after release: Err %v, mailbox holds %d", f.Err(), srv.MailboxLen(1))
	}
	// Sheds are per level: a full sort level does not block sends.
	tk, err = adm.Acquire(LevelSort)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(1); !errors.Is(err, icilk.ErrShed) {
		t.Fatalf("overloaded sort: err %v, want ErrShed", err)
	}
	if f, err = submit(0); err != nil {
		t.Fatalf("send with sort level full: %v", err)
	}
	f.Wait()
	adm.Release(tk, false)

	// Late: a deadline below any service time.
	srv, adm = gated(t, time.Nanosecond)
	if f, err = adm.Submit(srv.Request(3, 1, 0)); err != nil {
		t.Fatal(err)
	}
	f.Wait()
	if !errors.Is(f.Err(), context.DeadlineExceeded) {
		t.Fatalf("over-deadline compress: Err = %v, want DeadlineExceeded", f.Err())
	}
}
