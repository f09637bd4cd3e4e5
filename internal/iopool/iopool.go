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
// Submit never blocks: completions beyond the handoff-channel capacity
// spill to an overflow list drained by the handlers as capacity frees
// up. This is deliberate — handler callbacks may themselves submit
// (retry loops, chained I/O), and a blocking Submit from a handler
// against a full queue would deadlock the pool. Saturation is made
// visible through the Depth/HighWater/Spills gauges instead of through
// blocking backpressure.
package iopool

import (
	"sync"
	"sync/atomic"

	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
	"icilk/internal/metrics"
)

// defaultCapacity is the handoff-channel bound. Submissions beyond it
// spill to the overflow list (Submit never blocks), so it bounds the
// channel's standing memory and sets how early saturation shows up in
// the Spills counter — not a hard limit on outstanding completions.
const defaultCapacity = 4096

// Pool is a fixed set of I/O handler goroutines draining a FIFO of
// completion callbacks.
type Pool struct {
	// ch is the bounded handoff channel the handlers range over. Every
	// send — Submit's fast path and refill's overflow drain — happens
	// under mu and is non-blocking, which is what makes Submit safe to
	// call from a handler callback and keeps cross-submitter FIFO order.
	ch chan func()
	wg sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond // signaled when overflow drains empty after Close
	closed bool
	// overflow holds accepted callbacks that did not fit in ch, oldest
	// first. While it is non-empty new submissions must append here
	// (never jump the line into ch); refill moves its head into ch as
	// handlers free capacity.
	overflow []func()

	// depth counts accepted completions not yet fully processed (in
	// ch, in overflow, or running in a handler); it is incremented only
	// after the closed check accepts the submission, so rejected
	// post-Close submissions never perturb it. highWater tracks depth's
	// maximum over the pool's lifetime — the saturation signal that
	// makes an undersized pool visible. spills counts submissions that
	// missed the handoff channel and took the overflow path.
	depth       atomic.Int64
	highWater   atomic.Int64
	completions atomic.Int64
	spills      atomic.Int64
}

// New starts a pool with the given number of handler threads (the
// paper uses 4). A zero or negative threads count defaults to 4.
func New(threads int) *Pool { return newPool(threads, defaultCapacity) }

// newPool is New with an explicit handoff-channel capacity; the tests
// use a tiny one to force the overflow path.
func newPool(threads, capacity int) *Pool {
	if threads <= 0 {
		threads = 4
	}
	p := &Pool{ch: make(chan func(), capacity)}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < threads; i++ {
		p.wg.Add(1)
		go p.handle()
	}
	return p
}

// handle is one handler thread's loop.
func (p *Pool) handle() {
	defer p.wg.Done()
	for fn := range p.ch {
		// Receiving freed a channel slot: pull overflow forward
		// before running the callback so sibling handlers see the
		// next completion without waiting for this one.
		p.refill()
		fn()
		d := p.depth.Add(-1)
		if invariant.Enabled {
			invariant.Checkf(d >= 0,
				"iopool: depth went negative (%d) after completion", d)
		}
		p.completions.Add(1)
	}
}

// refill moves queued overflow callbacks into the handoff channel, as
// many as fit without blocking. Once the overflow drains while the
// pool is closed, it wakes Close, which is waiting to seal the channel.
func (p *Pool) refill() {
	p.mu.Lock()
	moved := 0
moving:
	for moved < len(p.overflow) {
		select {
		case p.ch <- p.overflow[moved]:
			moved++
		default:
			break moving
		}
	}
	if moved > 0 {
		rem := copy(p.overflow, p.overflow[moved:])
		for i := rem; i < len(p.overflow); i++ {
			p.overflow[i] = nil // release the moved callbacks' refs
		}
		p.overflow = p.overflow[:rem]
	}
	if len(p.overflow) == 0 && p.closed {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Submit enqueues a completion callback. Callbacks run in FIFO order
// (with up to `threads` in flight at once). Submit never blocks: when
// the handoff channel is full the callback is accepted into the
// overflow list and drained as handlers catch up, so handler callbacks
// may safely re-submit and Close never waits behind a stuck submitter.
// Submit after Close is a silent no-op (late completions during
// shutdown are dropped).
func (p *Pool) Submit(fn func()) {
	if invariant.Enabled {
		perturb.At(perturb.IO)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	d := p.depth.Add(1)
	for {
		hw := p.highWater.Load()
		if d <= hw || p.highWater.CompareAndSwap(hw, d) {
			break
		}
	}
	if len(p.overflow) == 0 {
		select {
		case p.ch <- fn:
			p.mu.Unlock()
			return
		default:
		}
	}
	// Channel full (or older spilled work exists, which must run
	// first): take the overflow path.
	p.overflow = append(p.overflow, fn)
	p.spills.Add(1)
	p.mu.Unlock()
}

// Depth returns the number of completions accepted but not yet fully
// processed (queued, spilled, or in flight). It rises while submitters
// outpace the handlers and returns to zero when the pool is idle.
func (p *Pool) Depth() int64 { return p.depth.Load() }

// HighWater returns the maximum Depth ever observed — the pool's
// lifetime saturation mark. A HighWater near or beyond Capacity means
// completions spilled past the handoff channel; compare Spills.
func (p *Pool) HighWater() int64 { return p.highWater.Load() }

// Completions returns the number of completion callbacks processed.
func (p *Pool) Completions() int64 { return p.completions.Load() }

// Spills returns the number of submissions that found the handoff
// channel full and took the overflow path. A growing value under load
// means the channel capacity or handler count is undersized.
func (p *Pool) Spills() int64 { return p.spills.Load() }

// Capacity returns the handoff-channel bound.
func (p *Pool) Capacity() int { return cap(p.ch) }

// RegisterMetrics exports the pool's queue gauges and completion
// counter into reg.
func (p *Pool) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("icilk_io_queue_depth",
		"I/O completions accepted but not yet processed.",
		func() float64 { return float64(p.Depth()) })
	reg.GaugeFunc("icilk_io_queue_high_water",
		"Maximum observed I/O completion-queue depth.",
		func() float64 { return float64(p.HighWater()) })
	reg.GaugeFunc("icilk_io_queue_capacity",
		"I/O handoff-channel capacity (submissions beyond it spill).",
		func() float64 { return float64(p.Capacity()) })
	reg.CounterFunc("icilk_io_completions_total",
		"I/O completion callbacks processed by the handler threads.",
		func() float64 { return float64(p.Completions()) })
	reg.CounterFunc("icilk_io_spills_total",
		"I/O submissions that overflowed the handoff channel.",
		func() float64 { return float64(p.Spills()) })
}

// Close stops accepting work, drains the queue — spilled overflow
// included — and waits for the handler threads to exit. Every callback
// accepted before Close runs to completion.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	// The channel can only be closed once no more sends can occur; the
	// handlers' refill keeps feeding it from the overflow list, so wait
	// for that list to drain first. Handlers are alive the whole time
	// (ch is still open), so progress is guaranteed.
	for len(p.overflow) > 0 {
		p.cond.Wait()
	}
	close(p.ch)
	p.mu.Unlock()
	p.wg.Wait()
	if invariant.Enabled {
		// Close-drains-all: with the channel sealed and every handler
		// exited, no accepted completion may remain uncounted.
		invariant.Checkf(p.depth.Load() == 0,
			"iopool: Close left depth %d (accepted completions unprocessed)", p.depth.Load())
	}
}
