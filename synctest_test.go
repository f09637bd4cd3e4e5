//go:build goexperiment.synctest

package icilk

import (
	"testing"
	"testing/synctest"
	"time"
)

// TestSynctestWaitAfterBubble: a runtime used inside a synctest bubble
// leaves nothing bubbled behind for other runtimes. A lone Wait parks
// on a channel from its runtime's own list; were the list shared
// process-wide, a channel made inside the bubble would be handed to a
// later Wait outside it, and the send that completes that Wait would
// panic ("send on synctest channel from outside bubble").
func TestSynctestWaitAfterBubble(t *testing.T) {
	synctest.Run(func() {
		rt, err := New(Config{Workers: 2, Levels: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			rt.Submit(0, func(task *Task) any {
				rt.Sleep(task, time.Millisecond)
				return nil
			}).Wait()
		}
		rt.Close()
	})
	rt := newRT(t, Config{Workers: 2, Levels: 1})
	for i := 0; i < 64; i++ {
		if got := rt.Submit(0, func(*Task) any { return i }).Wait(); got != i {
			t.Fatalf("Wait %d returned %v", i, got)
		}
	}
}
