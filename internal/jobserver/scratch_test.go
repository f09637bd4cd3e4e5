package jobserver

import (
	"sync/atomic"
	"testing"
	"time"

	"icilk"
)

// TestSWIntoIgnoresStaleInterior proves the comment on swInto: with
// h's border zero, whatever the interior holds going in, the score is
// SWSeq's.
func TestSWIntoIgnoresStaleInterior(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	for trial, n := range []int{1, 31, 32, 33, 64, 100, 150} {
		p, q := randomSeq(n, uint64(trial)), randomSeq(n+13, uint64(trial)+100)
		s := newSWScratch(p, q)
		s.poison()
		got := rt.Run(func(task *icilk.Task) any { return swInto(task, s) }).(int)
		if want := SWSeq(p, q); got != want {
			t.Fatalf("n %d: swInto over a garbage interior = %d, SWSeq = %d", n, got, want)
		}
	}
}

// TestMMIntoClearsDirtyC: mm accumulates, so mmInto must not add to
// what the last owner left in c.
func TestMMIntoClearsDirtyC(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	for _, n := range []int{1, 16, 17, 40} {
		a, b := randomMatrix(n, uint64(n)), randomMatrix(n, uint64(n+1))
		c := make([]float64, n*n)
		poisonFill(c)
		rt.Run(func(task *icilk.Task) any { mmInto(task, newMMScratch(a, b, c, n)); return nil })
		want := rt.Run(func(task *icilk.Task) any { return MM(task, a, b, n) }).([]float64)
		for i := range want {
			if c[i] != want[i] {
				t.Fatalf("n %d: C[%d] = %v over a dirty c, %v over a fresh one", n, i, c[i], want[i])
			}
		}
	}
}

// checksums runs every (class, seq) for seq 0..63, as the pinned
// benchmark's golden check does.
func checksums(srv *Server) (sums [Levels][64]any) {
	for class := range sums {
		for seq := range sums[class] {
			sums[class][seq] = srv.Do(class, int64(seq)).Wait()
		}
	}
	return sums
}

// TestRecycledScratchSameChecksums: a request's result does not depend
// on what the scratch it drew served before.
func TestRecycledScratchSameChecksums(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	fresh, err := New(rt, benchConfig)
	if err != nil {
		t.Fatal(err)
	}
	want := checksums(fresh)

	used, _ := New(rt, benchConfig)
	futs := make([]*icilk.Future, 0, 50)
	for i := 0; i < 1000; i++ {
		futs = append(futs, used.Do(i%Levels, int64(i*7919)))
		if len(futs) == cap(futs) {
			for _, f := range futs {
				f.Wait()
			}
			futs = futs[:0]
		}
	}
	if got := checksums(used); got != want {
		for class := range got {
			for seq := range got[class] {
				if got[class][seq] != want[class][seq] {
					t.Errorf("%s seq %d: %v from recycled scratch, %v from fresh", OpNames[class], seq, got[class][seq], want[class][seq])
				}
			}
		}
	}
}

// TestCancelledJobKeepsScratchPrivate cancels sort and sw jobs
// mid-flight, at deadlines that sweep across their run time, beside a
// closed loop of uncancelled jobs of the same class drawing from the
// same pool. A cancelled sw job unwinds while tiles it spawned on the
// root frame may still be running (sort's forks all sit inside called
// frames, which join before the unwind passes them); if its scratch
// went back to the pool then, a straggler and the next owner share the
// buffers. Mutation-checked by writing `defer recycle(...)` in both
// bodies: under -tags icilk_debug -race the sw subtest then fails
// every run (3 of 3; recycle's poison writes race with the straggler's
// tile, a handful of times in 300 rounds), while plain -race passed
// the one run tried — the neighbour has to draw the scratch within the
// straggler's last microseconds — so this test is armed by the
// invariant build.
func TestCancelledJobKeepsScratchPrivate(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	srv, err := New(rt, Config{SortSize: 1 << 14, SWSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []int{2, 3} {
		t.Run(OpNames[class], func(t *testing.T) {
			const seqs = 8
			var want [seqs]any
			for seq := range want {
				want[seq] = srv.Do(class, int64(seq)).Wait()
			}
			var stop atomic.Bool
			kept := make(chan int)
			go func() {
				n := 0
				for ; !stop.Load(); n++ {
					if got := srv.Do(class, int64(n%seqs)).Wait(); got != want[n%seqs] {
						t.Errorf("uncancelled job %d returned %v, want %v", n, got, want[n%seqs])
					}
				}
				kept <- n
			}()
			cancelled := 0
			const rounds = 300
			for round := 0; round < rounds; round++ {
				level, body := srv.Job(class, int64(round))
				f := rt.SubmitWithDeadline(level, time.Duration(10+5*round)*time.Microsecond, body)
				f.Wait()
				if f.Err() != nil {
					cancelled++
				}
			}
			stop.Store(true)
			t.Logf("%d of %d deadline jobs cancelled beside %d uncancelled ones", cancelled, rounds, <-kept)
			if cancelled == 0 {
				t.Fatal("no job was cancelled: the deadlines no longer land inside the jobs")
			}
		})
	}
}
