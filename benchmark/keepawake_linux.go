package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Keep-awake: on this box (a 2-vCPU Firecracker guest, no cpuidle
// driver) an idle vCPU halts, which is an exit to the hypervisor, and
// what a wake-up then costs depends on host state the guest cannot
// see. Identical runs of mc_tcp read p50_ms 0.14 or 0.43 and sat_ops_s
// 204 k or 311 k, a whole run at a time. One SCHED_IDLE thread per CPU
// that never sleeps keeps the vCPUs out of halt; every other thread
// preempts it at once. With it the same runs read 0.11-0.16 ms and
// 293-328 k. It is the guest-side equivalent of idle=poll, and it
// lives in a child process so it takes no P from the runtime under
// test.

const spinIters = 40_000

// keepAwakeMain is the child: `benchmark keepawake`. It exits when
// its stdin closes, so it cannot outlive the run.
func keepAwakeMain() {
	var ready sync.WaitGroup
	for i := 0; i < nproc(); i++ {
		ready.Add(1)
		go func() {
			runtime.LockOSThread()
			const schedIdle = 5
			var param struct{ priority int32 }
			if _, _, e := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				fmt.Fprintln(os.Stderr, "keepawake: sched_setscheduler(SCHED_IDLE):", e)
				os.Exit(3)
			}
			ready.Done()
			for {
				// Some 20 us of spinning, then yield. Go's runtime
				// calls sched_yield in its own spin loops, and a
				// spinner that never yields back keeps the CPU until
				// the next 4 ms scheduler tick when it does (p99_ms
				// read 3.5 ms on every workload); one that yields
				// every few us spends its time in the kernel and the
				// vCPUs slow down again.
				for k := 0; k < spinIters; k++ {
				}
				syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
			}
		}()
	}
	ready.Wait()
	fmt.Println("ready")
	io.Copy(io.Discard, os.Stdin)
}

// startKeepAwake launches the child and returns a function that stops
// it and waits for it. ok is false when the child could not get
// SCHED_IDLE; the run then proceeds without it and says so.
func startKeepAwake() (stop func(), ok bool) {
	self, err := os.Executable()
	if err != nil {
		return func() {}, false
	}
	cmd := exec.Command(self, "keepawake")
	cmd.Stderr = os.Stderr
	stdin, err1 := cmd.StdinPipe()
	stdout, err2 := cmd.StdoutPipe()
	if err1 != nil || err2 != nil || cmd.Start() != nil {
		return func() {}, false
	}
	stop = func() {
		stdin.Close()
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
	line, _ := bufio.NewReader(stdout).ReadString('\n')
	if line != "ready\n" {
		stop()
		return func() {}, false
	}
	return stop, true
}
