package deque

import (
	"testing"
	"testing/quick"

	"icilk/internal/invariant"
)

func TestPushPopBottomLIFO(t *testing.T) {
	d := New(0, nil)
	for i := 0; i < 5; i++ {
		d.PushBottom(i)
	}
	for i := 4; i >= 0; i-- {
		v, ok := d.PopBottom()
		if !ok || v.(int) != i {
			t.Fatalf("PopBottom = %v,%v want %d", v, ok, i)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("PopBottom on empty succeeded")
	}
}

func TestStealTopFIFO(t *testing.T) {
	d := New(0, nil)
	for i := 0; i < 5; i++ {
		d.PushBottom(i)
	}
	for i := 0; i < 5; i++ {
		v, rem, ok := d.StealTop()
		if !ok || v.(int) != i {
			t.Fatalf("StealTop = %v,%v want %d", v, ok, i)
		}
		if rem != 4-i {
			t.Fatalf("remaining = %d, want %d", rem, 4-i)
		}
	}
}

// TestStealKeepsCapacity: each of the three steal paths shifts the
// remaining frames down instead of advancing the slice past the stolen
// one, so a deque that is stolen from, pushed to and stolen from again
// never regrows its array, and every vacated slot is nil — a parked
// slot would pin a finished task for as long as the deque is recycled.
func TestStealKeepsCapacity(t *testing.T) {
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation accounting differs under -race and icilk_debug")
	}
	frames := make([]any, 4)
	for i := range frames {
		frames[i] = new(int) // pointers: boxing them allocates nothing
	}
	for name, steal := range map[string]func(d *Deque) any{
		"StealTop":     func(d *Deque) any { x, _, _ := d.StealTop(); return x },
		"TryStealTop":  func(d *Deque) any { x, _ := d.TryStealTop(); return x },
		"TakeForThief": func(d *Deque) any { _, x, _ := d.TakeForThief(false); return x },
	} {
		d := New(0, nil)
		want := func(i int) {
			if got := steal(d); got != frames[i] {
				t.Errorf("%s: stole %p, want frame %d (%p)", name, got, i, frames[i])
			}
		}
		cycle := func() {
			d.PushBottom(frames[0])
			d.PushBottom(frames[1])
			want(0) // a steal that leaves a frame behind, then pushes on top of it
			d.PushBottom(frames[2])
			d.PushBottom(frames[3])
			want(1)
			want(2)
			want(3)
		}
		cycle() // the array grows to its three slots here, once
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Errorf("%s: a push/steal cycle allocates %.2f objects after warm-up, want 0", name, avg)
		}
		for i, x := range d.items[:cap(d.items)] {
			if x != nil {
				t.Errorf("%s: slot %d of the drained deque still holds %p", name, i, x)
			}
		}
	}
}

func TestNeedsEnqueueOnlyOnce(t *testing.T) {
	d := New(0, nil)
	if !d.PushBottom(1) {
		t.Fatal("first push should require enqueue")
	}
	if d.PushBottom(2) {
		t.Fatal("second push should not require enqueue")
	}
	reg, mug := d.InPool()
	if !reg || mug {
		t.Fatalf("flags = %v,%v want regular only", reg, mug)
	}
}

func TestSuspendResumeCycle(t *testing.T) {
	d := New(3, nil)
	if d.State() != Active {
		t.Fatal("new deque not active")
	}
	if stealable := d.Suspend("blocked"); stealable {
		t.Fatal("empty deque reported stealable")
	}
	if d.State() != Suspended {
		t.Fatal("not suspended")
	}
	if !d.MarkResumable() {
		t.Fatal("resumable deque not flagged for enqueue")
	}
	if d.State() != Resumable {
		t.Fatal("not resumable")
	}
	res, frame, pushBack := d.TakeForThief(false)
	if res != PopMug || frame.(string) != "blocked" || pushBack {
		t.Fatalf("TakeForThief = %v,%v,%v", res, frame, pushBack)
	}
	if d.State() != Active {
		t.Fatal("mugged deque not active")
	}
}

func TestTakeForThiefStealAndPushBack(t *testing.T) {
	d := New(0, nil)
	d.PushBottom("a") // sets inRegular
	d.PushBottom("b")
	d.Suspend("blocked") // suspended with 2 stealable frames
	res, frame, pushBack := d.TakeForThief(false)
	if res != PopSteal || frame.(string) != "a" {
		t.Fatalf("steal = %v,%v", res, frame)
	}
	if !pushBack || !d.HasFrames() {
		t.Fatalf("deque with a remaining frame: pushBack=%v HasFrames=%v", pushBack, d.HasFrames())
	}
	res, frame, pushBack = d.TakeForThief(false)
	if res != PopSteal || frame.(string) != "b" || pushBack || d.HasFrames() {
		t.Fatalf("second steal = %v,%v,%v HasFrames=%v", res, frame, pushBack, d.HasFrames())
	}
	// Now suspended and empty: lazy discard.
	res, _, _ = d.TakeForThief(false)
	if res != PopDiscard {
		t.Fatalf("third take = %v, want discard", res)
	}
	// The blocked frame is still recoverable through resumption.
	if !d.MarkResumable() {
		t.Fatal("MarkResumable should need enqueue after discard")
	}
	res, frame, _ = d.TakeForThief(false)
	if res != PopMug || frame.(string) != "blocked" {
		t.Fatalf("mug = %v,%v", res, frame)
	}
}

func TestAbandonGoesToMuggingQueue(t *testing.T) {
	d := New(1, nil)
	if !d.Abandon("me", true) {
		t.Fatal("abandon should need enqueue")
	}
	if !d.Immediately() {
		t.Fatal("abandoned deque not marked immediately-resumable")
	}
	reg, mug := d.InPool()
	if reg || !mug {
		t.Fatalf("flags = %v,%v want mugging only", reg, mug)
	}
	res, frame, _ := d.TakeForThief(true)
	if res != PopMug || frame.(string) != "me" {
		t.Fatalf("mug = %v,%v", res, frame)
	}
	if d.Immediately() {
		t.Fatal("immediately flag should clear on mug")
	}
}

func TestAbandonRegularWhenMuggingDisabled(t *testing.T) {
	d := New(1, nil)
	d.Abandon("me", false)
	reg, mug := d.InPool()
	if !reg || mug {
		t.Fatalf("flags = %v,%v want regular only", reg, mug)
	}
}

func TestLiveCounting(t *testing.T) {
	var count int
	d := New(2, func(level, delta int) {
		if level != 2 {
			t.Fatalf("level = %d", level)
		}
		count += delta
	})
	d.PushBottom(1)
	if count != 1 {
		t.Fatalf("count = %d after push", count)
	}
	d.PushBottom(2)
	if count != 1 {
		t.Fatalf("count = %d after second push", count)
	}
	d.PopBottom()
	d.PopBottom()
	if count != 0 {
		t.Fatalf("count = %d after drain", count)
	}
	// Suspended-empty is not live; resumable-empty is (its bottom
	// frame is runnable work).
	d.Suspend("b")
	if count != 0 {
		t.Fatalf("count = %d after suspend", count)
	}
	d.MarkResumable()
	if count != 1 {
		t.Fatalf("count = %d after resumable", count)
	}
	d.TryMug()
	if count != 0 {
		t.Fatalf("count = %d after mug", count)
	}
}

func TestMarkDeadIfDone(t *testing.T) {
	d := New(0, nil)
	d.PushBottom(1)
	if d.MarkDeadIfDone() {
		t.Fatal("non-empty deque marked dead")
	}
	d.PopBottom()
	if !d.MarkDeadIfDone() {
		t.Fatal("empty deque not marked dead")
	}
	if d.State() != Dead {
		t.Fatal("state not dead")
	}
	res, _, _ := d.TakeForThief(false)
	if res != PopDiscard {
		t.Fatal("dead deque not discarded")
	}
}

func TestTryMugOnlyResumable(t *testing.T) {
	d := New(0, nil)
	if _, ok := d.TryMug(); ok {
		t.Fatal("mugged an active deque")
	}
	d.Suspend("x")
	if _, ok := d.TryMug(); ok {
		t.Fatal("mugged a suspended deque")
	}
	d.MarkResumable()
	if v, ok := d.TryMug(); !ok || v.(string) != "x" {
		t.Fatal("failed to mug a resumable deque")
	}
}

// TestQuickDequeModel: the deque's push/pop/steal behaviour matches a
// reference slice under any operation sequence, and the lock-free
// HasFrames mirror agrees with it after every operation.
func TestQuickDequeModel(t *testing.T) {
	prop := func(ops []uint8) bool {
		d := New(0, nil)
		var model []int
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push
				d.PushBottom(next)
				model = append(model, next)
				next++
			case 2: // pop bottom
				v, ok := d.PopBottom()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || v.(int) != want {
					return false
				}
			case 3: // steal top
				v, _, ok := d.StealTop()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[0]
				model = model[1:]
				if !ok || v.(int) != want {
					return false
				}
			}
			if d.HasFrames() != (len(model) > 0) {
				return false
			}
		}
		return d.Len() == len(model)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
