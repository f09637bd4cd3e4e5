package main

import (
	"os"
	"syscall"
	"unsafe"
)

// tickPeriod bounds how late a Go timer can fire while the pacer
// runs. Go rounds an idle M's netpoll wait up to whole milliseconds,
// so with every P idle a time.Sleep(30us) returned after 0.55 ms at
// the median and 1.2 ms at p99 on this box, which put a 0.6 ms floor
// under p50_ms at nominal load. With the tick: 48 us and 0.47 ms.
const tickPeriod = 100_000 // ns

// startTick arms a kernel interval timer that the Go netpoller
// watches: each expiry wakes the idle M, which then runs any timer
// that has come due. It is part of the load generator, like the pacer.
func startTick(periodNS int64) (stop func(), err error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if e != 0 {
		return nil, e
	}
	its := struct{ interval, value syscall.Timespec }{syscall.NsecToTimespec(periodNS), syscall.NsecToTimespec(periodNS)}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); e != 0 {
		syscall.Close(int(fd))
		return nil, e
	}
	f := os.NewFile(fd, "timerfd")
	done := make(chan struct{})
	go func() {
		defer close(done)
		var b [8]byte
		for {
			if _, err := f.Read(b[:]); err != nil {
				return
			}
		}
	}()
	return func() { f.Close(); <-done }, nil
}
