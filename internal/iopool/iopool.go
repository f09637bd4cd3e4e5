// Package iopool implements the I/O handling threads of the I-Cilk
// runtimes. The paper's experimental setup creates "4 worker threads
// plus 4 I/O handling threads (which is based on the design of the
// prior work on handling I/O futures [40])": I/O completions are not
// processed inline by whoever detects them, but funneled through a
// small pool of dedicated handler threads. The pool serves every
// completion source that has no thread of its own: the netsim
// substrate, the per-connection pump, Runtime.CompleteIO and Sleep's
// timers. Shared-poller sockets do not come here — the poller that
// harvests readiness completes their futures itself, as in [40].
//
// Two properties matter for the reproduction:
//
//  1. Completions are processed in arrival (FIFO) order across all
//     connections — this ordering is what the schedulers see when
//     deques become resumable, and is the substrate of the aging
//     heuristic.
//  2. Completion work (making a deque resumable, re-enqueueing it)
//     happens off the worker threads, as in the reference design.
//
// Submit never blocks: the queue is a ring that doubles when full.
// This is deliberate — handler callbacks may themselves submit (retry
// loops, chained I/O), and a blocking Submit from a handler against a
// full queue would deadlock the pool. Saturation is made visible
// through the Depth/HighWater gauges instead of through blocking
// backpressure.
package iopool

import (
	"sync"
	"sync/atomic"

	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
	"icilk/internal/metrics"
)

// Pool is a fixed set of I/O handler goroutines draining a FIFO of
// completion callbacks.
type Pool struct {
	mu sync.Mutex
	// ready is signaled once per accepted callback and broadcast by
	// Close; the handlers wait on it while the ring is empty.
	ready sync.Cond
	// ring holds the accepted callbacks not yet started, oldest at
	// head, n of them. Its length is a power of two, doubled when
	// full and never shrunk.
	ring    []func()
	head, n int
	closed  bool
	wg      sync.WaitGroup

	// depth counts accepted completions not yet fully processed
	// (queued or running in a handler); it moves only once the closed
	// check accepts the submission, so rejected post-Close submissions
	// never perturb it. highWater tracks depth's maximum over the
	// pool's lifetime — the saturation signal that makes an undersized
	// pool visible.
	depth       atomic.Int64
	highWater   atomic.Int64
	completions atomic.Int64
}

// New starts a pool with the given number of handler threads (the
// paper uses 4). A zero or negative threads count defaults to 4.
func New(threads int) *Pool {
	if threads <= 0 {
		threads = 4
	}
	p := &Pool{ring: make([]func(), 64)}
	p.ready.L = &p.mu
	for i := 0; i < threads; i++ {
		p.wg.Add(1)
		go p.handle()
	}
	return p
}

// handle is one handler thread's loop. It exits once the pool is
// closed and the ring is empty.
func (p *Pool) handle() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		for p.n == 0 && !p.closed {
			p.ready.Wait()
		}
		if p.n == 0 {
			p.mu.Unlock()
			return
		}
		fn := p.ring[p.head]
		p.ring[p.head] = nil // the ring must not keep a run callback's captures alive
		p.head = (p.head + 1) & (len(p.ring) - 1)
		p.n--
		p.mu.Unlock()

		fn()
		d := p.depth.Add(-1)
		if invariant.Enabled {
			invariant.Checkf(d >= 0,
				"iopool: depth went negative (%d) after completion", d)
		}
		p.completions.Add(1)
		p.mu.Lock()
	}
}

// Submit enqueues a completion callback. Callbacks start in FIFO order
// (with up to `threads` in flight at once). Submit never blocks, so
// handler callbacks may safely re-submit. Submit after Close is a
// silent no-op (late completions during shutdown are dropped).
func (p *Pool) Submit(fn func()) {
	if invariant.Enabled {
		perturb.At(perturb.IO)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	if p.n == len(p.ring) {
		// Full: double, unwrapping so the oldest callback is at 0.
		ring := make([]func(), 2*len(p.ring))
		copy(ring, p.ring[p.head:])
		copy(ring[len(p.ring)-p.head:], p.ring[:p.head])
		p.ring, p.head = ring, 0
	}
	p.ring[(p.head+p.n)&(len(p.ring)-1)] = fn
	p.n++
	// highWater is written only here, under mu.
	if d := p.depth.Add(1); d > p.highWater.Load() {
		p.highWater.Store(d)
	}
	p.ready.Signal()
	p.mu.Unlock()
}

// Depth returns the number of completions accepted but not yet fully
// processed (queued or in flight). It rises while submitters outpace
// the handlers and returns to zero when the pool is idle.
func (p *Pool) Depth() int64 { return p.depth.Load() }

// HighWater returns the maximum Depth ever observed — the pool's
// lifetime saturation mark.
func (p *Pool) HighWater() int64 { return p.highWater.Load() }

// Completions returns the number of completion callbacks processed.
func (p *Pool) Completions() int64 { return p.completions.Load() }

// RegisterMetrics exports the pool's queue gauges and completion
// counter into reg.
func (p *Pool) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("icilk_io_queue_depth",
		"I/O completions accepted but not yet processed.",
		func() float64 { return float64(p.Depth()) })
	reg.GaugeFunc("icilk_io_queue_high_water",
		"Maximum observed I/O completion-queue depth.",
		func() float64 { return float64(p.HighWater()) })
	reg.CounterFunc("icilk_io_completions_total",
		"I/O completion callbacks processed by the handler threads.",
		func() float64 { return float64(p.Completions()) })
}

// Close stops accepting work, drains the queue and waits for the
// handler threads to exit. Every callback accepted before Close runs
// to completion.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.ready.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	if invariant.Enabled {
		// Close-drains-all: with every handler exited, no accepted
		// completion may remain uncounted.
		invariant.Checkf(p.depth.Load() == 0,
			"iopool: Close left depth %d (accepted completions unprocessed)", p.depth.Load())
	}
}
