package fifoq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"icilk/internal/epoch"
	"icilk/internal/invariant"
)

func newQ() (*Queue[*int], *epoch.Participant) {
	col := epoch.NewCollector()
	return New[*int](col), col.Register()
}

func TestEmptyDequeue(t *testing.T) {
	q, p := newQ()
	if v, ok := q.Dequeue(p); ok {
		t.Fatalf("dequeue on empty returned %v", v)
	}
	if !q.Empty() || q.Len() != 0 {
		t.Fatalf("empty queue reports Len=%d Empty=%v", q.Len(), q.Empty())
	}
}

func TestFIFOOrderSingleThread(t *testing.T) {
	q, p := newQ()
	const n = 1000 // spans multiple segments
	vals := make([]int, n)
	for i := 0; i < n; i++ {
		vals[i] = i
		q.Enqueue(p, &vals[i])
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := q.Dequeue(p)
		if !ok {
			t.Fatalf("dequeue %d failed", i)
		}
		if *v != i {
			t.Fatalf("dequeue %d = %d, want %d (FIFO violated)", i, *v, i)
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

func TestInterleavedEnqueueDequeue(t *testing.T) {
	q, p := newQ()
	vals := make([]int, 10000)
	next := 0
	expect := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 73 && next < len(vals); i++ {
			vals[next] = next
			q.Enqueue(p, &vals[next])
			next++
		}
		for i := 0; i < 71; i++ {
			v, ok := q.Dequeue(p)
			if !ok {
				break
			}
			if *v != expect {
				t.Fatalf("got %d, want %d", *v, expect)
			}
			expect++
		}
	}
	for {
		v, ok := q.Dequeue(p)
		if !ok {
			break
		}
		if *v != expect {
			t.Fatalf("drain got %d, want %d", *v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d, enqueued %d", expect, next)
	}
}

// TestConcurrentMPMC checks that under concurrent producers and
// consumers every element is delivered exactly once and per-producer
// order is preserved (FIFO linearizability implies per-producer
// order at the consumers).
func TestConcurrentMPMC(t *testing.T) {
	col := epoch.NewCollector()
	q := New[*[2]int](col)
	const producers = 4
	const consumers = 4
	const perProducer = 5000

	var wg sync.WaitGroup
	for pid := 0; pid < producers; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			part := col.Register()
			for i := 0; i < perProducer; i++ {
				v := &[2]int{pid, i}
				q.Enqueue(part, v)
			}
		}(pid)
	}

	type rec struct{ pid, seq int }
	results := make(chan rec, producers*perProducer)
	var cwg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			part := col.Register()
			for {
				v, ok := q.Dequeue(part)
				if ok {
					results <- rec{v[0], v[1]}
					continue
				}
				select {
				case <-done:
					// Final drain after producers finished.
					if v, ok := q.Dequeue(part); ok {
						results <- rec{v[0], v[1]}
						continue
					}
					return
				default:
					// Yield on the empty path: on a single-CPU host a
					// spinning consumer can starve the producers for a
					// very long stretch under the race detector.
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	cwg.Wait()
	close(results)

	seen := make(map[[2]int]bool)
	count := 0
	for r := range results {
		k := [2]int{r.pid, r.seq}
		if seen[k] {
			t.Fatalf("duplicate delivery of %v", k)
		}
		seen[k] = true
		count++
	}
	if count != producers*perProducer {
		t.Fatalf("delivered %d, want %d", count, producers*perProducer)
	}
}

// TestSegmentRecycling drives enough traffic through the queue that
// segments are unlinked and verifies the epoch mechanism recycles them.
func TestSegmentRecycling(t *testing.T) {
	col := epoch.NewCollector()
	q := New[*int](col)
	p := col.Register()
	v := 7
	for i := 0; i < SegSize*20; i++ {
		q.Enqueue(p, &v)
		if _, ok := q.Dequeue(p); !ok {
			t.Fatal("dequeue failed")
		}
	}
	if q.Recycled() == 0 {
		t.Fatal("no segments were recycled through the epoch collector")
	}
}

// TestQuickFIFO is a property-based test: any sequence of enqueue (+)
// and dequeue (-) operations behaves exactly like a model slice queue.
func TestQuickFIFO(t *testing.T) {
	prop := func(ops []uint8) bool {
		col := epoch.NewCollector()
		q := New[*int](col)
		p := col.Register()
		var model []int
		next := 0
		store := make([]int, 0, len(ops))
		for _, op := range ops {
			if op%3 != 0 { // bias toward enqueue
				store = append(store, next)
				q.Enqueue(p, &store[len(store)-1])
				model = append(model, next)
				next++
			} else {
				v, ok := q.Dequeue(p)
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok || *v != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		// Drain and compare.
		for len(model) > 0 {
			v, ok := q.Dequeue(p)
			if !ok || *v != model[0] {
				return false
			}
			model = model[1:]
		}
		_, ok := q.Dequeue(p)
		return !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLenEstimate(t *testing.T) {
	q, p := newQ()
	vals := [3]int{1, 2, 3}
	for i := range vals {
		q.Enqueue(p, &vals[i])
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	q.Dequeue(p)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

// TestSegmentCreateCompactRace hunts for an orphaned segment: a
// successor linked behind a segment that is being unlinked at the same
// moment. If an enqueuer could link or reach a segment that dequeuers,
// walking the list, never arrive at, it would publish elements
// there while the dequeuers holding the matching tickets wait forever
// on cells that never fill (up to SegSize tickets strand at once). The
// workload keeps the queue short so that at every SegSize boundary the
// successor install (by whichever of an enqueuer's walk and
// unlinkDead gets there first) coincides with the head segment's
// death; the watchdog turns a strand into a test failure instead of a
// suite timeout. The race is probabilistic — one run is not a
// guaranteed reproducer, but a strand, when hit, is permanent and
// always caught.
func TestSegmentCreateCompactRace(t *testing.T) {
	col := epoch.NewCollector()
	q := New[*int](col)
	const producers = 2
	const consumers = 2
	const perProducer = 30000

	var got atomic.Int64
	done := make(chan struct{})
	finished := make(chan struct{})

	go func() {
		defer close(finished)
		var cwg sync.WaitGroup
		for c := 0; c < consumers; c++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				part := col.Register()
				for {
					if _, ok := q.Dequeue(part); ok {
						got.Add(1)
						continue
					}
					select {
					case <-done:
						for {
							if _, ok := q.Dequeue(part); !ok {
								return
							}
							got.Add(1)
						}
					default:
						runtime.Gosched() // don't starve producers on 1 CPU
					}
				}
			}()
		}
		var pwg sync.WaitGroup
		vals := make([][]int, producers)
		for p := 0; p < producers; p++ {
			vals[p] = make([]int, perProducer)
			pwg.Add(1)
			go func(p int) {
				defer pwg.Done()
				part := col.Register()
				for i := 0; i < perProducer; i++ {
					vals[p][i] = i
					q.Enqueue(part, &vals[p][i])
				}
			}(p)
		}
		pwg.Wait()
		close(done)
		cwg.Wait()
	}()

	select {
	case <-finished:
	case <-time.After(120 * time.Second):
		t.Fatalf("stranded: consumed %d of %d after 120s (orphaned-segment race: an element was published into a segment no walk from the list's first segment reaches)",
			got.Load(), producers*perProducer)
	}
	if n := got.Load(); n != producers*perProducer {
		t.Fatalf("consumed %d, want %d", n, producers*perProducer)
	}
}

// overrun replays, one step at a time, what a dequeuer does when it
// has passed Dequeue's emptiness check and then finds itself beyond
// the tail: claim a head ticket, locate its segment, poison the cell.
// Real overruns need as many racing dequeuers as tickets burned; this
// makes a whole segment of them deterministic.
func overrun(t *testing.T, q *Queue[*int], p *epoch.Participant) {
	t.Helper()
	p.Pin()
	defer p.Unpin()
	h := q.head.Add(1) - 1
	seg := q.findSegment(h, &q.headSeg)
	if !seg.cells[h%SegSize].state.CompareAndSwap(cellEmpty, cellPoisoned) {
		t.Fatalf("ticket %d: cell not empty", h)
	}
	q.noteConsumed(seg)
}

// TestLateEnqueuerAfterPoisonedSegmentUnlinked: dequeuers overrun an
// empty queue across a segment boundary, so a whole segment is
// poisoned, unlinked and recycled before any enqueue ticket in it is
// claimed. Every enqueue that follows claims a burned ticket first —
// some in segments that are still linked (poisoned cell, retry), some
// in segments already gone (findSegment returns nil, retry) — and must
// still land, in order.
func TestLateEnqueuerAfterPoisonedSegmentUnlinked(t *testing.T) {
	col := epoch.NewCollector()
	q := New[*int](col)
	enq, deq := col.Register(), col.Register()

	vals := make([]int, 3*SegSize)
	for i := range vals {
		vals[i] = i
	}
	// Start mid-segment so the overrun crosses a boundary.
	const lead = SegSize / 2
	for i := 0; i < lead; i++ {
		q.Enqueue(enq, &vals[i])
		if v, ok := q.Dequeue(deq); !ok || *v != i {
			t.Fatalf("warm-up dequeue %d = %v, %v", i, v, ok)
		}
	}
	// Through the end of segment 2 and a few cells into segment 3,
	// which therefore stays linked.
	const burned = 2*SegSize + SegSize/2 + 10
	for i := 0; i < burned; i++ {
		overrun(t, q, deq)
	}
	if got := q.first.Load().id; got != 3 {
		t.Fatalf("list starts at segment %d after the overrun, want 3 (segments 0-2 dead and unlinked)", got)
	}
	if h, tl := q.headSeg.Load().id, q.tailSeg.Load().id; h != 3 || tl != 3 {
		t.Fatalf("hints at segments %d (head) and %d (tail) after the overrun, want 3 and 3: a hint left on an unlinked segment is recycled under its next user", h, tl)
	}
	if _, ok := q.Dequeue(deq); ok {
		t.Fatal("dequeue from an overrun queue returned an element")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d on an overrun queue, want 0", q.Len())
	}

	// tail is still in segment 0: the first enqueue works through
	// every burned ticket before it finds a live cell.
	for i := lead; i < len(vals); i++ {
		q.Enqueue(enq, &vals[i])
	}
	if got, want := q.Len(), len(vals)-lead; got != want {
		t.Fatalf("Len = %d after the late enqueues, want %d", got, want)
	}
	for i := lead; i < len(vals); i++ {
		v, ok := q.Dequeue(deq)
		if !ok {
			t.Fatalf("dequeue %d failed: a late enqueue was lost", i)
		}
		if *v != i {
			t.Fatalf("dequeue %d = %d (FIFO violated after the overrun)", i, *v)
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

// TestStalledDequeuerDoesNotHoldBackTheHints: a dequeuer that has
// claimed a ticket and then stalls keeps its segment, and therefore
// the list's first segment, where it is — but not the hints, so
// everyone else still finds their segments in a hop. When it finally
// acts, every segment that died behind it in the meantime is unlinked
// in one go.
func TestStalledDequeuerDoesNotHoldBackTheHints(t *testing.T) {
	col := epoch.NewCollector()
	q := New[*int](col)
	enq, deq, stalled := col.Register(), col.Register(), col.Register()

	const segs = 10
	vals := make([]int, (segs+2)*SegSize)
	for i := range vals {
		vals[i] = i
	}
	pairs := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			q.Enqueue(enq, &vals[i])
			if v, ok := q.Dequeue(deq); !ok || *v != i {
				t.Fatalf("dequeue %d = %v, %v", i, v, ok)
			}
		}
	}

	// The stalled dequeuer: ticket 0 claimed and located, not yet taken.
	q.Enqueue(enq, &vals[0])
	stalled.Pin()
	h := q.head.Add(1) - 1
	seg := q.findSegment(h, &q.headSeg)

	pairs(1, segs*SegSize)
	if got := q.first.Load().id; got != 0 {
		t.Fatalf("list starts at segment %d with ticket 0 still outstanding, want 0", got)
	}
	if h, tl := q.headSeg.Load().id, q.tailSeg.Load().id; h != segs-1 || tl != segs-1 {
		t.Fatalf("hints at segments %d (head) and %d (tail), want %d: a stalled ticket holder must not hold them back", h, tl, segs-1)
	}
	if n := q.Recycled(); n != 0 {
		t.Fatalf("%d segments recycled behind an outstanding ticket", n)
	}

	// It wakes up and takes its element.
	c := &seg.cells[h%SegSize]
	if c.state.Load() != cellFull || *c.val != 0 {
		t.Fatalf("stalled ticket's cell: state %d", c.state.Load())
	}
	c.val = nil
	q.noteConsumed(seg)
	stalled.Unpin()
	if got := q.first.Load().id; got != segs {
		t.Fatalf("list starts at segment %d after the stalled dequeuer acted, want %d (segments 0-%d are dead)", got, segs, segs-1)
	}

	pairs(segs*SegSize, len(vals))
	if q.Recycled() == 0 {
		t.Fatal("no segment recycled after the stall ended")
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

// TestEnqueueDequeueSteadyStateAllocFree pins the cost of crossing
// segment boundaries once the queue is warm: the successor comes out
// of the free pool, the dead head goes back through a callback bound
// when the segment was first allocated, and the collector's retire
// list keeps its capacity. With two participants the enqueuer and the
// dequeuer pin separately, as the scheduler's I/O threads and workers
// do.
func TestEnqueueDequeueSteadyStateAllocFree(t *testing.T) {
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation gate: the instrumented builds allocate on their own")
	}
	for _, participants := range []int{1, 2} {
		col := epoch.NewCollector()
		q := New[*int](col)
		enq := col.Register()
		deq := enq
		if participants == 2 {
			deq = col.Register()
		}
		v := 7
		pairs := func() {
			for i := 0; i < 16*SegSize; i++ {
				q.Enqueue(enq, &v)
				if _, ok := q.Dequeue(deq); !ok {
					t.Fatal("dequeue failed")
				}
			}
		}
		pairs() // warm: fill the free pool and size the retire list
		if n := testing.AllocsPerRun(10, pairs); n != 0 {
			t.Errorf("%d participant(s): %v allocs per %d warm enqueue/dequeue pairs, want 0",
				participants, n, 16*SegSize)
		}
	}
}
