package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestAddAndCounts(t *testing.T) {
	l := New(8)
	l.Add(Steal, 1, 0)
	l.Add(Steal, 2, 1)
	l.Add(Mug, 0, 3)
	if l.Count(Steal) != 2 || l.Count(Mug) != 1 || l.Count(Abandon) != 0 {
		t.Fatalf("counts: steal=%d mug=%d", l.Count(Steal), l.Count(Mug))
	}
	if l.Total() != 3 {
		t.Fatalf("total = %d", l.Total())
	}
}

func TestSnapshotOrderAndWrap(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Add(Enqueue, i, i%3)
	}
	ev := l.Snapshot()
	if len(ev) != 4 {
		t.Fatalf("snapshot len = %d, want ring capacity 4", len(ev))
	}
	// Oldest retained is event #6 (workers 6..9).
	for i, e := range ev {
		if int(e.Worker) != 6+i {
			t.Fatalf("snapshot[%d].Worker = %d, want %d", i, e.Worker, 6+i)
		}
	}
	// Timestamps non-decreasing.
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatal("timestamps regress")
		}
	}
}

func TestNilLogIsNoop(t *testing.T) {
	var l *Log
	l.Add(Steal, 0, 0) // must not panic
	if l.Count(Steal) != 0 || l.Total() != 0 || l.Snapshot() != nil {
		t.Fatal("nil log not inert")
	}
	if l.String() != "trace(disabled)" {
		t.Fatalf("String = %q", l.String())
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestConcurrentAdd(t *testing.T) {
	l := New(1024)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				l.Add(Kind(i%int(numKinds)), g, 0)
			}
		}(g)
	}
	wg.Wait()
	if l.Total() != 20000 {
		t.Fatalf("total = %d", l.Total())
	}
	var sum int64
	for k := Kind(0); k < numKinds; k++ {
		sum += l.Count(k)
	}
	if sum != 20000 {
		t.Fatalf("count sum = %d", sum)
	}
	if !strings.Contains(l.String(), "total:20000") {
		t.Fatalf("String = %q", l.String())
	}
}

// TestSnapshotDuringAdds: Snapshot on a live log (what GET /debug/trace
// does) must be race-free against every writer — run under -race — and
// must never return a torn or misplaced record: each writer stamps its
// id in both Worker and Level, and a small ring keeps writers lapping
// the reader.
func TestSnapshotDuringAdds(t *testing.T) {
	const writers, perWriter = 4, 20000
	l := New(64)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Add(Kind(g), g, g)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		ev := l.Snapshot()
		if len(ev) > 64 {
			t.Fatalf("snapshot of a 64-slot ring returned %d events", len(ev))
		}
		for _, e := range ev {
			if e.Worker != e.Level || Kind(e.Worker) != e.Kind || e.Worker < 0 || e.Worker >= writers {
				t.Fatalf("torn record: %+v", e)
			}
		}
	}
	if got := len(l.Snapshot()); got != 64 {
		t.Fatalf("quiescent snapshot holds %d events, want the full ring of 64", got)
	}
	if l.Total() != writers*perWriter {
		t.Fatalf("total = %d", l.Total())
	}
}
