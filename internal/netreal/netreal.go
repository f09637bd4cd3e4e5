// Package netreal adapts real net.Conn connections (TCP, unix
// sockets) to the icilk.Conn surface, so the task-parallel servers in
// this repository can serve actual network clients, not only the
// in-memory netsim substrate used by the figure harnesses.
//
// A connection detects readiness in one of two ways, chosen per
// connection by WrapOptions from what it can observe:
//
//   - Shared poller (the default on Linux for any conn that exposes a
//     file descriptor; netreal_poll.go): the connection registers its
//     fd with a netpoll.Group, a fixed handful of poller goroutines
//     harvest epoll readiness for all connections, and each ready
//     connection moves bytes with raw nonblocking read/write/writev on
//     its own fd. The callbacks armed by ArmRead are returned to the
//     poller, which runs every callback of one harvest pass itself,
//     in one Options.Batcher call (the runtime's wake bracket).
//     A write that would block parks its bytes and waits for
//     EPOLLOUT; a reader that falls bufferSoftCap behind has its read
//     interest dropped until it drains.
//   - Pump (net.Pipe and other conns without an fd, non-Linux builds,
//     and builds with the icilk_nopoll tag): one goroutine per
//     connection blocks in Read and fills the same buffer, pausing at
//     the same soft cap. It is the only transport those cases have.
//
// TryRead/ArmRead operate on the buffer with the same semantics as
// netsim.Endpoint in either mode. The data path is allocation-free at
// steady state:
//
//   - Reads land directly in fixed-size chunks recycled through a
//     process-wide sync.Pool; the filler (poller or pump) writes the
//     tail chunk in place (no intermediate copy, no append-grow), and
//     fully consumed chunks return to the pool as the consumer drains,
//     so a connection's buffered memory tracks its backlog instead of
//     its high-water mark.
//   - Writes coalesce in a per-connection buffer until Flush (the
//     icilk read path flushes automatically before suspending), so a
//     burst of small replies costs one syscall. A large payload is
//     sent with writev alongside the pending small writes rather than
//     being copied through the buffer.
package netreal

import (
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"icilk/internal/metrics"
	"icilk/internal/netpoll"
)

// bufferSoftCap pauses the pump when a client floods faster than the
// server consumes, providing backpressure.
const bufferSoftCap = 1 << 20

// chunkSize is the pump's read granularity and the unit of pooled
// buffer memory.
const chunkSize = 16 * 1024

// writeBufFlushAt flushes the write buffer inline once it holds this
// many bytes, bounding per-connection pending-output memory even if
// the handler never reaches a flush point.
const writeBufFlushAt = 32 * 1024

// writeVecThreshold is the payload size at or above which Write
// bypasses the coalescing copy and issues a vectored write (pending
// buffer + payload in one writev syscall).
const writeVecThreshold = 2 * 1024

// chunk is one pooled buffer segment of a connection's read queue.
// The consumer owns data[r:w]; the pump owns data[w:] of the tail
// chunk (disjoint ranges, so the pump fills while the consumer
// drains). A chunk may be returned to the pool only when fully
// consumed AND full (r == w == chunkSize): the pump never writes to a
// full chunk, so a full drained chunk is provably unreferenced.
type chunk struct {
	data [chunkSize]byte
	r, w int
	next *chunk
}

// chunkPool recycles read chunks across all connections.
var chunkPool sync.Pool

// Stats aggregates I/O accounting across a set of adapted
// connections: how many bytes the pumps are holding (memory pressure
// from slow consumers), how often backpressure engaged, buffer-pool
// recycling effectiveness, and total socket traffic. WrapOptions
// charges connections to Options.Stats, or to DefaultStats if it is
// nil.
type Stats struct {
	buffered   atomic.Int64
	readBytes  atomic.Int64
	pauses     atomic.Int64
	conns      atomic.Int64
	poolHits   atomic.Int64
	poolMisses atomic.Int64
	sysReads   atomic.Int64
	sysWrites  atomic.Int64
}

// DefaultStats is the process-wide account used when Options.Stats
// is nil.
var DefaultStats = &Stats{}

// Buffered returns the bytes currently buffered across live
// connections.
func (s *Stats) Buffered() int64 { return s.buffered.Load() }

// ReadBytes returns total bytes pumped off sockets.
func (s *Stats) ReadBytes() int64 { return s.readBytes.Load() }

// Pauses returns how many backpressure episodes pumps have entered.
func (s *Stats) Pauses() int64 { return s.pauses.Load() }

// Conns returns the number of live adapted connections.
func (s *Stats) Conns() int64 { return s.conns.Load() }

// PoolHits returns how many chunk acquisitions were served from the
// recycling pool.
func (s *Stats) PoolHits() int64 { return s.poolHits.Load() }

// PoolMisses returns how many chunk acquisitions had to allocate.
func (s *Stats) PoolMisses() int64 { return s.poolMisses.Load() }

// SysReads returns the read syscalls charged to this account. In
// poller mode every read(2) is counted exactly (including EAGAIN
// probes); the pump counts one per blocking Read completion, an
// undercount of the syscalls the Go runtime issues on its behalf.
func (s *Stats) SysReads() int64 { return s.sysReads.Load() }

// SysWrites returns the write/writev syscalls charged to this
// account (exact in poller mode; one per net.Conn write call in pump
// mode).
func (s *Stats) SysWrites() int64 { return s.sysWrites.Load() }

// getChunk takes a reset chunk from the pool, charging hit/miss
// accounting to s.
func (s *Stats) getChunk() *chunk {
	if c, _ := chunkPool.Get().(*chunk); c != nil {
		s.poolHits.Add(1)
		return c
	}
	s.poolMisses.Add(1)
	return new(chunk)
}

// putChunk recycles a chunk no goroutine references.
func putChunk(c *chunk) {
	c.r, c.w, c.next = 0, 0, nil
	chunkPool.Put(c)
}

// RegisterMetrics exports the account into reg.
func (s *Stats) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("icilk_net_buffered_bytes",
		"Bytes buffered by connection read pumps awaiting consumption.",
		func() float64 { return float64(s.Buffered()) })
	reg.GaugeFunc("icilk_net_open_conns",
		"Live adapted network connections.",
		func() float64 { return float64(s.Conns()) })
	reg.CounterFunc("icilk_net_read_bytes_total",
		"Bytes read off sockets by connection pumps.",
		func() float64 { return float64(s.ReadBytes()) })
	reg.CounterFunc("icilk_net_backpressure_pauses_total",
		"Read-pump pauses because a connection buffer exceeded the soft cap.",
		func() float64 { return float64(s.Pauses()) })
	reg.CounterFunc("icilk_net_pool_hits_total",
		"Read-buffer chunk acquisitions served from the recycling pool.",
		func() float64 { return float64(s.PoolHits()) })
	reg.CounterFunc("icilk_net_pool_misses_total",
		"Read-buffer chunk acquisitions that had to allocate a fresh chunk.",
		func() float64 { return float64(s.PoolMisses()) })
	reg.CounterFunc("icilk_net_syscalls_total",
		"Network data-path syscalls by operation.",
		func() float64 { return float64(s.SysReads()) },
		metrics.L("op", "read"))
	reg.CounterFunc("icilk_net_syscalls_total",
		"Network data-path syscalls by operation.",
		func() float64 { return float64(s.SysWrites()) },
		metrics.L("op", "write"))
}

// Mode is the type of Options.Mode, which nothing reads; see
// WrapOptions.
type Mode int

// ModePoll is the zero and only Mode.
const ModePoll Mode = 0

// Options configures WrapOptions.
type Options struct {
	// Stats receives the connection's accounting; nil means
	// DefaultStats.
	Stats *Stats
	// Batcher runs poller completion callbacks on the poller, one
	// call per pass (normally the runtime, whose SubmitBatch brackets
	// the pass with wake coalescing and drops it once the runtime is
	// closed). nil runs each callback bare, which is fine for tests
	// but forfeits both.
	Batcher netpoll.Batcher
	// Mode is not read; see WrapOptions.
	Mode Mode
	// Group overrides the process-shared poller group (tests).
	Group *netpoll.Group
}

// Conn adapts a net.Conn to the icilk.Conn interface.
type Conn struct {
	nc    net.Conn
	stats *Stats

	// Poller-mode plumbing (nil/zero in pump mode).
	pd      *netpoll.Desc
	batcher netpoll.Batcher
	rawfd   int
	rdead   atomic.Bool // read side terminal (poller deregistration handshake)
	wparked atomic.Bool // wpend non-empty (other half of the handshake)

	mu         sync.Mutex
	cond       *sync.Cond
	head, tail *chunk // read queue; tail is the pump's fill target
	buffered   int    // unread bytes across the queue
	acct       int    // bytes currently charged to stats.buffered
	rerr       error  // terminal read error (io.EOF after drain)
	notify     func() // armed one-shot readiness callback
	closed     bool
	paused     bool // poller mode: read interest dropped for backpressure
	detached   bool // poller mode: deregistered mid-backlog; consumer drives the drain

	wmu   sync.Mutex
	wbuf  []byte      // coalesced pending writes
	wpend []byte      // poller mode: bytes parked awaiting EPOLLOUT
	vec   net.Buffers // reusable writev vector
	werr  error       // sticky write error
	dead  bool        // poller mode: no further raw-fd writes (closing)
}

// WrapOptions adapts nc according to o. The readiness engine is
// chosen from what nc and the build offer, not from o.Mode: the
// shared poller when netpoll.Supported and nc implements syscall.Conn,
// and otherwise the per-connection pump (net.Pipe and other conns
// without an fd, non-Linux builds, builds tagged icilk_nopoll).
// Options.Mode and its type remain only because benchmark/mc.go names
// netreal.ModePoll.
func WrapOptions(nc net.Conn, o Options) *Conn {
	stats := o.Stats
	if stats == nil {
		stats = DefaultStats
	}
	c := &Conn{nc: nc, stats: stats, rawfd: -1}
	c.cond = sync.NewCond(&c.mu)
	stats.conns.Add(1)

	sc, _ := nc.(syscall.Conn)
	if netpoll.Supported && sc != nil {
		g := o.Group
		if g == nil {
			g = sharedGroup()
		}
		if g != nil && c.startPoll(g, sc, o.Batcher) {
			return c
		}
	}
	go c.pump()
	return c
}

// The process-shared poller group, opened by the first connection
// that needs it: min(4, GOMAXPROCS) pollers. A harness that wants
// another count passes its own netpoll.Open(n) through Options.Group.
var (
	pollOnce  sync.Once
	pollGroup *netpoll.Group
)

// sharedGroup returns the process-shared poller group, or nil if it
// could not be opened (the caller then falls back to the pump).
func sharedGroup() *netpoll.Group {
	pollOnce.Do(func() {
		// A failed Open leaves the group nil for the life of the process.
		pollGroup, _ = netpoll.Open(min(4, runtime.GOMAXPROCS(0)))
	})
	return pollGroup
}

// syncAcct reconciles stats.buffered with this connection's current
// buffered byte count. Must be called with c.mu held after any change
// to buffered/closed.
func (c *Conn) syncAcct() {
	cur := c.buffered
	if c.closed {
		cur = 0
	}
	if d := cur - c.acct; d != 0 {
		c.stats.buffered.Add(int64(d))
		c.acct = cur
	}
}

// pump moves bytes from the socket straight into pooled chunks and
// fires readiness. Only the pump appends chunks and only the pump
// writes data[w:] of the tail chunk; everything else is guarded by
// c.mu.
func (c *Conn) pump() {
	for {
		c.mu.Lock()
		cur := c.tail
		if cur == nil || cur.w == chunkSize {
			cur = c.stats.getChunk()
			if c.tail == nil {
				c.head, c.tail = cur, cur
			} else {
				c.tail.next = cur
				c.tail = cur
			}
		}
		w0 := cur.w
		c.mu.Unlock()

		n, err := c.nc.Read(cur.data[w0:])
		c.stats.sysReads.Add(1) // approximate: one per blocking Read

		c.mu.Lock()
		if n > 0 {
			cur.w = w0 + n
			c.buffered += n
			c.stats.readBytes.Add(int64(n))
			c.syncAcct()
		}
		if err != nil {
			c.rerr = err
		}
		fn := c.notify
		c.notify = nil
		c.cond.Broadcast()
		// Backpressure: one pause episode per over-cap crossing, then
		// wait for the consumer to drain below the cap.
		if c.buffered > bufferSoftCap && c.rerr == nil && !c.closed {
			c.stats.pauses.Add(1)
			for c.buffered > bufferSoftCap && c.rerr == nil && !c.closed {
				c.cond.Wait()
			}
		}
		stop := c.rerr != nil || c.closed
		c.mu.Unlock()
		if fn != nil {
			fn()
		}
		if stop {
			return
		}
	}
}

// releaseDrainedLocked returns the whole queue to the pool. Callers
// hold c.mu and must have established that the pump can no longer
// touch the chunks (it has observed rerr/closed and stopped, which is
// implied by rerr being set before the final broadcast).
func (c *Conn) releaseDrainedLocked() {
	for ch := c.head; ch != nil; {
		next := ch.next
		putChunk(ch)
		ch = next
	}
	c.head, c.tail = nil, nil
}

// TryRead copies buffered bytes without blocking; n==0 with nil error
// means "would block"; io.EOF after the peer closes and the buffer
// drains.
func (c *Conn) TryRead(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.buffered > 0 {
		n := 0
		for n < len(p) && c.buffered > 0 {
			ch := c.head
			if ch.r == ch.w {
				// Fully consumed interior chunk (always full: the pump
				// moves on only when a chunk fills).
				c.head = ch.next
				putChunk(ch)
				continue
			}
			m := copy(p[n:], ch.data[ch.r:ch.w])
			ch.r += m
			n += m
			c.buffered -= m
			if ch.r == chunkSize {
				c.head = ch.next
				if c.head == nil {
					c.tail = nil
				}
				putChunk(ch)
			}
		}
		if c.buffered == 0 {
			if c.rerr != nil {
				// The pump has stopped; recycle the partially filled
				// tail instead of retaining it until GC.
				c.releaseDrainedLocked()
			}
			c.cond.Broadcast() // release pump backpressure
		} else if c.buffered <= bufferSoftCap {
			c.cond.Broadcast()
		}
		if c.paused && c.buffered <= bufferSoftCap {
			c.resumeReadsLocked()
		}
		c.syncAcct()
		return n, nil
	}
	if c.rerr != nil {
		// A consumer may first observe the terminal error here, after a
		// prior call drained the data while the pump was still running:
		// the partially filled tail chunk is still queued. The pump has
		// stopped (rerr is set before its final broadcast), so release
		// it now rather than retaining it until GC.
		c.releaseDrainedLocked()
		if c.rerr == io.EOF {
			return 0, io.EOF
		}
		return 0, c.rerr
	}
	return 0, nil
}

// ArmRead registers a one-shot readiness callback (fires immediately
// if data or a terminal error is already pending).
func (c *Conn) ArmRead(fn func()) {
	c.mu.Lock()
	if c.buffered > 0 || c.rerr != nil {
		c.mu.Unlock()
		fn()
		return
	}
	if c.notify != nil {
		c.mu.Unlock()
		panic("netreal: ArmRead while already armed")
	}
	c.notify = fn
	c.mu.Unlock()
}

// Write queues bytes for the peer. Small writes coalesce in the
// connection's write buffer until Flush (or the buffer crossing its
// flush threshold); a payload of writeVecThreshold bytes or more is
// sent immediately with a vectored write alongside any pending bytes,
// without copying. p may be reused as soon as Write returns. A
// transport error is sticky and surfaces on this and every later
// write or flush.
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return 0, c.werr
	}
	if len(p) >= writeVecThreshold {
		if c.pd != nil {
			if err := c.flushPollLocked(p); err != nil {
				return 0, err
			}
			return len(p), nil
		}
		if len(c.wbuf) == 0 {
			c.stats.sysWrites.Add(1)
			if _, err := c.nc.Write(p); err != nil {
				c.werr = err
				return 0, err
			}
			return len(p), nil
		}
		c.vec = append(c.vec[:0], c.wbuf, p)
		c.stats.sysWrites.Add(1)
		if _, err := c.vec.WriteTo(c.nc); err != nil {
			c.werr = err
			c.wbuf = c.wbuf[:0]
			return 0, err
		}
		c.wbuf = c.wbuf[:0]
		return len(p), nil
	}
	c.wbuf = append(c.wbuf, p...)
	if len(c.wbuf) >= writeBufFlushAt {
		return len(p), c.flushLocked()
	}
	return len(p), nil
}

// WriteString queues s without converting it to a byte slice.
func (c *Conn) WriteString(s string) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return 0, c.werr
	}
	c.wbuf = append(c.wbuf, s...)
	if len(c.wbuf) >= writeBufFlushAt {
		return len(s), c.flushLocked()
	}
	return len(s), nil
}

// Flush sends all pending coalesced writes in one syscall. The icilk
// read path calls it automatically before suspending on an I/O
// future, so protocol handlers only need explicit flushes at response
// boundaries not followed by a read.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

func (c *Conn) flushLocked() error {
	if c.werr != nil {
		return c.werr
	}
	if c.pd != nil {
		return c.flushPollLocked(nil)
	}
	if len(c.wbuf) == 0 {
		return nil
	}
	c.stats.sysWrites.Add(1)
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	if err != nil {
		c.werr = err
	}
	return err
}

// Close flushes pending writes and shuts the socket and its
// readiness source (pump goroutine or poller registration) down.
// Already-buffered reads remain consumable via TryRead. In poller
// mode any bytes still parked behind a full kernel buffer are given
// one bounded blocking drain (closeDrainTimeout) before the socket
// closes, so a reply written immediately before Close is not
// silently dropped.
func (c *Conn) Close() error {
	c.Flush()
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.stats.conns.Add(-1)
		c.syncAcct()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if c.pd != nil {
		c.closePoll()
	}
	return c.nc.Close()
}
