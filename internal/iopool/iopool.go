// Package iopool implements the I/O handling threads of the I-Cilk
// runtimes. The paper's experimental setup creates "4 worker threads
// plus 4 I/O handling threads (which is based on the design of the
// prior work on handling I/O futures [40])": I/O completions are not
// processed inline by whoever detects them, but funneled through a
// small pool of dedicated handler threads.
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

// DefaultCapacity is the handoff-channel bound used when no
// WithCapacity option is given.
const DefaultCapacity = 4096

// Option configures a Pool.
type Option func(*options)

type options struct {
	capacity  int
	batchWrap func(run func())
}

// WithCapacity sets the handoff-channel capacity. Submissions beyond
// it spill to the overflow list (Submit never blocks), so the capacity
// bounds the channel's standing memory and tunes how early saturation
// shows up in the Spills counter — not a hard limit on outstanding
// completions. Non-positive values keep the default.
func WithCapacity(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.capacity = n
		}
	}
}

// WithBatchWrap wraps the execution of every SubmitBatch batch in w:
// the handler calls w(run) and w must call run() exactly once. The
// scheduler uses this to coalesce wakeups — run() completes N
// futures (each setting its promptness bit immediately), and the
// wrapper issues the single deferred wake when the batch ends.
func WithBatchWrap(w func(run func())) Option {
	return func(o *options) { o.batchWrap = w }
}

// item is one handoff unit: either a single completion (fn) or a
// batch that one handler drains serially — a batch stays one FIFO
// unit, so completions harvested together complete in harvest order.
type item struct {
	fn    func()
	batch *batch
}

// batch is the pooled copy of one SubmitBatch call's callbacks. It
// travels boxed so that recycling it through batchPool moves a
// pointer instead of allocating a slice header per batch.
type batch struct{ fns []func() }

// Pool is a fixed set of I/O handler goroutines draining a FIFO of
// completion callbacks.
type Pool struct {
	// ch is the bounded handoff channel the handlers range over. Every
	// send — Submit's fast path and refill's overflow drain — happens
	// under mu and is non-blocking, which is what makes Submit safe to
	// call from a handler callback and keeps cross-submitter FIFO order.
	ch chan item
	wg sync.WaitGroup

	// batchWrap, when set, brackets each batch drain (wake
	// coalescing); batchPool recycles the copied batches.
	batchWrap func(run func())
	batchPool sync.Pool

	mu     sync.Mutex
	cond   *sync.Cond // signaled when overflow drains empty after Close
	closed bool
	// overflow holds accepted callbacks that did not fit in ch, oldest
	// first. While it is non-empty new submissions must append here
	// (never jump the line into ch); refill moves its head into ch as
	// handlers free capacity.
	overflow []item

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
	batches     atomic.Int64
	batchedFns  atomic.Int64
}

// New starts a pool with the given number of handler threads (the
// paper uses 4). A zero or negative threads count defaults to 4;
// WithCapacity overrides the handoff-channel bound (default
// DefaultCapacity).
func New(threads int, opts ...Option) *Pool {
	if threads <= 0 {
		threads = 4
	}
	o := options{capacity: DefaultCapacity}
	for _, opt := range opts {
		opt(&o)
	}
	p := &Pool{ch: make(chan item, o.capacity), batchWrap: o.batchWrap}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < threads; i++ {
		p.wg.Add(1)
		go p.handle()
	}
	return p
}

// finishOne retires one completion from the depth account.
func (p *Pool) finishOne() {
	d := p.depth.Add(-1)
	if invariant.Enabled {
		invariant.Checkf(d >= 0,
			"iopool: depth went negative (%d) after completion", d)
	}
	p.completions.Add(1)
}

// handle is one handler thread's loop.
func (p *Pool) handle() {
	defer p.wg.Done()
	// drain runs the batch in cur serially (preserving harvest order).
	// It is bound once per handler rather than once per batch, so
	// handing it to batchWrap allocates nothing.
	var cur *batch
	drain := func() {
		for i, fn := range cur.fns {
			fn()
			cur.fns[i] = nil
			p.finishOne()
		}
	}
	for it := range p.ch {
		// Receiving freed a channel slot: pull overflow forward
		// before running the callback so sibling handlers see the
		// next completion without waiting for this one.
		p.refill()
		if it.fn != nil {
			it.fn()
			p.finishOne()
			continue
		}
		cur = it.batch
		p.batches.Add(1)
		p.batchedFns.Add(int64(len(cur.fns)))
		if p.batchWrap != nil {
			p.batchWrap(drain)
		} else {
			drain()
		}
		cur.fns = cur.fns[:0]
		p.batchPool.Put(cur)
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
			p.overflow[i] = item{} // release the moved callbacks' refs
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
	p.enqueue(item{fn: fn}, 1)
}

// SubmitBatch enqueues a batch of completion callbacks as ONE
// handoff unit: one mutex acquisition, one channel send, one handler
// claim for the whole batch, which is what amortizes the
// kernel-to-runtime boundary across a poller pass. The batch drains
// serially on a single handler in slice order (FIFO within the
// batch, FIFO against other submissions), bracketed by the
// WithBatchWrap coalescer when configured. fns is copied — the
// caller may reuse it as soon as SubmitBatch returns. Like Submit it
// never blocks and is a silent no-op after Close.
func (p *Pool) SubmitBatch(fns []func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		p.Submit(fns[0])
		return
	}
	if invariant.Enabled {
		perturb.At(perturb.IO)
	}
	b, _ := p.batchPool.Get().(*batch)
	if b == nil {
		b = new(batch)
	}
	b.fns = append(b.fns, fns...)
	p.enqueue(item{batch: b}, len(fns))
}

// enqueue is the shared non-blocking handoff: channel if it has room
// and no older spilled work exists, overflow otherwise.
func (p *Pool) enqueue(it item, n int) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	d := p.depth.Add(int64(n))
	for {
		hw := p.highWater.Load()
		if d <= hw || p.highWater.CompareAndSwap(hw, d) {
			break
		}
	}
	if len(p.overflow) == 0 {
		select {
		case p.ch <- it:
			p.mu.Unlock()
			return
		default:
		}
	}
	// Channel full (or older spilled work exists, which must run
	// first): take the overflow path.
	p.overflow = append(p.overflow, it)
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

// Batches returns the number of SubmitBatch units processed.
func (p *Pool) Batches() int64 { return p.batches.Load() }

// BatchedFns returns the completions delivered inside batches;
// BatchedFns/Batches is the realized handoff coalescing factor.
func (p *Pool) BatchedFns() int64 { return p.batchedFns.Load() }

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
	reg.CounterFunc("icilk_io_batches_total",
		"Batched completion handoffs (SubmitBatch units) processed.",
		func() float64 { return float64(p.Batches()) })
	reg.CounterFunc("icilk_io_batched_fns_total",
		"Completion callbacks delivered inside batched handoffs.",
		func() float64 { return float64(p.BatchedFns()) })
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
