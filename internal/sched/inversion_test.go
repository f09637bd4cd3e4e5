package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestInversionDetectionOnGet(t *testing.T) {
	rt := newTestRuntime(t, Config{Workers: 2, Levels: 3, Policy: Prompt})
	var events atomic.Int64
	rt.OnInversion(func() { events.Add(1) })

	// Well-formed: high waits on high, low waits on high. No events.
	rt.SubmitFuture(2, func(task *Task) any {
		f := task.FutCreate(0, func(*Task) any { return 1 })
		return f.Get(task)
	}).Wait()
	if rt.Inversions() != 0 {
		t.Fatalf("false positive: %d inversions", rt.Inversions())
	}

	// Inverted: a level-0 task gets a level-2 future.
	rt.SubmitFuture(0, func(task *Task) any {
		f := task.FutCreate(2, func(*Task) any { return 1 })
		return f.Get(task)
	}).Wait()
	if rt.Inversions() != 1 || events.Load() != 1 {
		t.Fatalf("inversions = %d (events %d), want 1", rt.Inversions(), events.Load())
	}

	// I/O futures never invert.
	iof := rt.NewIOFuture()
	go func() { time.Sleep(time.Millisecond); iof.Complete(nil) }()
	rt.SubmitFuture(0, func(task *Task) any { return iof.Get(task) }).Wait()
	if rt.Inversions() != 1 {
		t.Fatalf("I/O get counted as inversion")
	}
}
