package icilk_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"icilk"
	"icilk/internal/netsim"
)

// Fork-join parallelism: Spawn forks a child that may run in parallel
// with the caller's continuation; Sync joins all spawned children.
func ExampleRuntime_Run() {
	rt, _ := icilk.New(icilk.Config{Workers: 2})
	defer rt.Close()

	sum := rt.Run(func(t *icilk.Task) any {
		var left, right int
		t.Spawn(func(*icilk.Task) { left = 20 })
		right = 22
		t.Sync()
		return left + right
	})
	fmt.Println(sum)
	// Output: 42
}

// Futures escape lexical scope: create at one priority, consume at
// another. Level 0 is the highest priority.
func ExampleTask_FutCreate() {
	rt, _ := icilk.New(icilk.Config{Workers: 2, Levels: 2})
	defer rt.Close()

	out := rt.Run(func(t *icilk.Task) any {
		urgent := t.FutCreate(0, func(*icilk.Task) any { return "first" })
		lazy := t.FutCreate(1, func(*icilk.Task) any { return "second" })
		return urgent.Get(t).(string) + "/" + lazy.Get(t).(string)
	})
	fmt.Println(out)
	// Output: first/second
}

// I/O futures: Read blocks the task (its deque suspends and the
// worker runs other work) until the connection is readable.
func ExampleRuntime_Read() {
	rt, _ := icilk.New(icilk.Config{Workers: 1})
	defer rt.Close()

	client, server := netsim.Pipe()
	go func() {
		time.Sleep(time.Millisecond)
		client.WriteString("hello from the network")
	}()

	msg := rt.Run(func(t *icilk.Task) any {
		var buf [64]byte
		n, _ := rt.Read(t, server, buf[:])
		return string(buf[:n])
	})
	fmt.Println(msg)
	// Output: hello from the network
}

// Admission control is a gate the caller puts in front of the runtime:
// a request arriving at a full level is shed at once, without a task
// context, and an admitted request that outlives its deadline is
// cancelled at its next scheduling point.
func ExampleAdmissionController_Submit() {
	rt, _ := icilk.New(icilk.Config{Workers: 2, Levels: 2,
		Admission: &icilk.AdmissionConfig{QueueCap: 1, Timeout: 5 * time.Millisecond}})
	defer rt.Close()
	adm := rt.Admission()

	tk, _ := adm.Acquire(0) // level 0's one slot is taken
	_, err := adm.Submit(0, func(*icilk.Task) any { return "served" })
	fmt.Println("shed:", errors.Is(err, icilk.ErrShed))
	adm.Release(tk, false)

	f, _ := adm.Submit(0, func(t *icilk.Task) any {
		for {
			t.Yield() // cancelled here once the 5ms deadline passes
		}
	})
	f.Wait()
	fmt.Println("late:", errors.Is(f.Err(), context.DeadlineExceeded))
	// Output:
	// shed: true
	// late: true
}
