package emailserver

import (
	"context"
	"errors"
	"testing"
	"time"

	"icilk"
)

// TestTrySendShedAndLate covers the overload outcomes of the Try
// variants: with a level at capacity they return an error wrapping
// ErrShed — per level, and only until load drains — and an operation
// cancelled by its level's deadline yields a future whose Err is
// context.DeadlineExceeded.
func TestTrySendShedAndLate(t *testing.T) {
	timeouts := make([]time.Duration, Levels)
	timeouts[LevelCompress] = time.Nanosecond // any compress misses
	rt, err := icilk.New(icilk.Config{
		Workers: 2,
		Levels:  Levels,
		Admission: &icilk.AdmissionConfig{
			Policy:          icilk.ShedTailDrop,
			QueueCap:        1,
			PerLevelTimeout: timeouts,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv, err := New(rt, Config{Users: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetAdmission(rt.Admission())
	send := func() (*icilk.Future, error) { return srv.TrySend(1, "a@x", "s", []byte("hello")) }

	tk, err := rt.Admission().Acquire(LevelSend)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := send(); !errors.Is(err, icilk.ErrShed) || f != nil {
		t.Fatalf("overloaded send: future %v, err %v, want nil and ErrShed", f, err)
	}
	rt.Admission().Release(tk, false)

	f, err := send()
	if err != nil {
		t.Fatalf("send after release: %v", err)
	}
	f.Wait()
	if f.Err() != nil || srv.MailboxLen(1) != 1 {
		t.Fatalf("send after release: Err %v, mailbox holds %d", f.Err(), srv.MailboxLen(1))
	}
	// Sheds are per level: a full sort level does not block sends.
	tk, err = rt.Admission().Acquire(LevelSort)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.TrySort(1); !errors.Is(err, icilk.ErrShed) {
		t.Fatalf("overloaded sort: err %v, want ErrShed", err)
	}
	if f, err = send(); err != nil {
		t.Fatalf("send with sort level full: %v", err)
	}
	f.Wait()
	rt.Admission().Release(tk, false)

	// Late: the compress level's deadline is below any service time.
	if f, err = srv.TryCompress(1); err != nil {
		t.Fatal(err)
	}
	f.Wait()
	if !errors.Is(f.Err(), context.DeadlineExceeded) {
		t.Fatalf("over-deadline compress: Err = %v, want DeadlineExceeded", f.Err())
	}
}
