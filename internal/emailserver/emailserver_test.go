package emailserver

import (
	"testing"
	"time"

	"icilk"
)

func newRT(t *testing.T, pol icilk.Scheduler) *icilk.Runtime {
	t.Helper()
	rt, err := icilk.New(icilk.Config{Workers: 4, Levels: Levels, Scheduler: pol,
		Adaptive: icilk.AdaptiveParams{Quantum: time.Millisecond, Delta: 0.5, Rho: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestSendAppendsToMailbox(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	s, err := New(rt, Config{Users: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Send(1, "a@x", "subj", []byte("body")).Wait()
	}
	if got := s.MailboxLen(1); got != 10 {
		t.Fatalf("mailbox len = %d, want 10", got)
	}
	if got := s.MailboxLen(0); got != 0 {
		t.Fatalf("wrong mailbox touched: %d", got)
	}
}

func TestMailboxCap(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	s, _ := New(rt, Config{Users: 2, MaxMessagesPerBox: 5})
	for i := 0; i < 12; i++ {
		s.Send(0, "a@x", "s", []byte("b")).Wait()
	}
	if got := s.MailboxLen(0); got != 5 {
		t.Fatalf("mailbox len = %d, want cap 5", got)
	}
}

func TestSortOrdersMailbox(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	s, _ := New(rt, Config{Users: 1})
	subjects := []string{"zebra", "apple", "mango", "kiwi"}
	for _, subj := range subjects {
		s.Send(0, "a@x", subj, []byte("b")).Wait()
	}
	s.Sort(0).Wait()
	b := s.boxes[0]
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 1; i < len(b.messages); i++ {
		if b.messages[i-1].Subject > b.messages[i].Subject {
			t.Fatalf("mailbox not sorted at %d: %q > %q", i, b.messages[i-1].Subject, b.messages[i].Subject)
		}
	}
}

func TestCompressPrintRoundTrip(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	s, _ := New(rt, Config{Users: 1})
	for i := 0; i < 20; i++ {
		s.Send(0, "a@x", "subject", makeBody(i)).Wait()
	}
	compressed := s.Compress(0).Wait().(int)
	if compressed <= 0 {
		t.Fatalf("compressed size = %d", compressed)
	}
	rendered := s.Print(0).Wait().(int)
	// The rendered length must match the uncompressed rendering.
	b := s.boxes[0]
	b.mu.Lock()
	want := len(render(b.messages))
	b.mu.Unlock()
	if rendered != want {
		t.Fatalf("print rendered %d bytes, want %d", rendered, want)
	}
	if compressed >= want {
		t.Fatalf("DEFLATE did not compress: %d >= %d", compressed, want)
	}
}

func TestPrintWithoutPriorCompress(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	s, _ := New(rt, Config{Users: 1})
	s.Send(0, "a@x", "s", []byte("hello world")).Wait()
	if n := s.Print(0).Wait().(int); n <= 0 {
		t.Fatalf("print of uncompressed mailbox rendered %d bytes", n)
	}
}

func TestAllOpsAllPolicies(t *testing.T) {
	for _, pol := range []icilk.Scheduler{icilk.Prompt, icilk.Adaptive, icilk.AdaptiveAging, icilk.AdaptiveGreedy} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			rt := newRT(t, pol)
			s, _ := New(rt, Config{Users: 8})
			var futs []*icilk.Future
			for seq := int64(0); seq < 40; seq++ {
				futs = append(futs, s.Do(int(seq%4), int(seq%8), seq))
			}
			for _, f := range futs {
				f.Wait()
			}
			if rt.Inflight() != 0 {
				t.Fatalf("inflight = %d", rt.Inflight())
			}
		})
	}
}

func TestLevelsInsufficient(t *testing.T) {
	rt, err := icilk.New(icilk.Config{Workers: 1, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := New(rt, Config{}); err == nil {
		t.Fatal("New accepted a runtime with too few levels")
	}
}
