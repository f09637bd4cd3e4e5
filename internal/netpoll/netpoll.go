// Package netpoll implements the shared readiness layer of the
// batched event-loop data path: a small, fixed number of poller
// goroutines (one per shard) run epoll_wait with a multi-event
// harvest and drain every ready socket in one pass, instead of one
// blocking pump goroutine per connection paying one kernel crossing
// per event.
//
// The package deliberately knows nothing about the scheduler or the
// connection buffering strategy. A registered connection implements
// the small Conn interface: the poller calls PollReadable /
// PollWritable when the kernel reports readiness and the connection
// moves bytes. PollReadable may return a completion callback; the
// poller hands all callbacks harvested in the pass to the Batcher
// (the runtime's SubmitBatch) in one call, which runs them on the
// poller goroutine. The pollers are thus the I/O threads of the
// design the paper cites: the thread that sees readiness completes
// the futures, and each completion that takes the scheduler's
// bitfield from zero wakes its sleeping workers on the spot.
//
// On Linux the implementation is raw epoll over the stdlib syscall
// package (level-triggered, interest-mask toggling for backpressure
// and parked writes). Elsewhere — or when built with the
// icilk_nopoll tag — Supported is false, Open fails, and callers
// fall back to the per-connection pump (netreal keeps that path
// alive behind the same interface).
package netpoll

import (
	"errors"
	"sync/atomic"

	"icilk/internal/metrics"
)

// ErrWouldBlock is returned by ReadFD/WriteFD/WritevFD when the
// operation would block (EAGAIN); the caller should arm interest and
// retry on the next readiness event.
var ErrWouldBlock = errors.New("netpoll: operation would block")

// ErrClosed is returned for operations on a closed Group or Desc.
var ErrClosed = errors.New("netpoll: closed")

// Batcher receives one batch of completion callbacks per poller
// pass. fns is the poller's own slice, reused for the next pass: an
// implementation runs or copies it before returning. sched.Runtime
// implements it (runs the batch in place); tests substitute their
// own.
type Batcher interface {
	SubmitBatch(fns []func())
}

// Conn is the poller's view of a registered connection. Both methods
// are invoked from a poller goroutine with no netpoll locks held;
// they must not block. PollReadable's callback (nil if the event
// needs no completion delivered) is batched with every other callback
// from the same pass and handed to the returned Batcher in one
// SubmitBatch call; a nil Batcher runs the callback at once.
type Conn interface {
	// PollReadable is called when the fd is read-ready. forced marks
	// an EPOLLHUP/EPOLLERR event, which is delivered regardless of
	// the interest mask: the connection should drain to EOF even if
	// it paused reads for backpressure, or deregister if it is
	// already terminal (hangup events cannot be masked, so leaving a
	// dead fd registered spins the poller).
	PollReadable(d *Desc, forced bool) (fn func(), b Batcher)
	// PollWritable is called when the fd is write-ready (EPOLLOUT
	// interest was set, or a forced hangup/error event arrived while
	// writes were parked).
	PollWritable(d *Desc)
}

// Stats counts the poller's kernel crossings. Shared pollers serve
// every connection in the process, so the account is process-wide:
// PollStats.
type Stats struct {
	epollWaits atomic.Int64
	epollCtls  atomic.Int64
	events     atomic.Int64
	batches    atomic.Int64
	batchedFns atomic.Int64
}

// PollStats is the process-wide account for all poller groups.
var PollStats = &Stats{}

// EpollWaits returns the number of epoll_wait syscalls issued.
func (s *Stats) EpollWaits() int64 { return s.epollWaits.Load() }

// EpollCtls returns the number of epoll_ctl syscalls issued
// (registration, interest-mask toggles, deregistration).
func (s *Stats) EpollCtls() int64 { return s.epollCtls.Load() }

// Events returns the total readiness events harvested.
func (s *Stats) Events() int64 { return s.events.Load() }

// Batches returns how many completion batches pollers delivered.
func (s *Stats) Batches() int64 { return s.batches.Load() }

// BatchedFns returns the total completions delivered inside batches;
// BatchedFns/Batches is the realized coalescing factor.
func (s *Stats) BatchedFns() int64 { return s.batchedFns.Load() }

// RegisterMetrics exports the account into reg. The syscall counters
// share the icilk_net_syscalls_total family with netreal's read/write
// ops so syscalls/op rolls up from one metric name.
func (s *Stats) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("icilk_net_syscalls_total",
		"Network data-path syscalls by operation.",
		func() float64 { return float64(s.EpollWaits()) },
		metrics.L("op", "epoll_wait"))
	reg.CounterFunc("icilk_net_syscalls_total",
		"Network data-path syscalls by operation.",
		func() float64 { return float64(s.EpollCtls()) },
		metrics.L("op", "epoll_ctl"))
	reg.CounterFunc("icilk_netpoll_events_total",
		"Readiness events harvested by shared pollers.",
		func() float64 { return float64(s.Events()) })
	reg.CounterFunc("icilk_netpoll_batches_total",
		"Completion batches delivered by shared pollers.",
		func() float64 { return float64(s.Batches()) })
	reg.CounterFunc("icilk_netpoll_batched_fns_total",
		"Completions delivered inside poller batches.",
		func() float64 { return float64(s.BatchedFns()) })
}
