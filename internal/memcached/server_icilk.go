package memcached

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"icilk"
	"icilk/internal/metrics"
	"icilk/internal/netsim"
	"icilk/internal/stats"
)

// Both frontends yield after batchLimit pipelined requests, as
// memcached's reqs_per_event does, and sweep one store shard every
// crawlInterval in the background (the paper notes such background
// threads "rarely ran").
const (
	batchLimit    = 20
	crawlInterval = 100 * time.Millisecond
)

// ICilkConfig configures the task-parallel port. Requests run at
// level 0, the highest; the background crawler and "stats cachedump"
// scans run at the lowest configured level.
type ICilkConfig struct {
	// ServiceHistogram, if non-nil, records per-request service time
	// (request fully parsed to reply written) — constant-memory
	// latency tracking for long-running deployments.
	ServiceHistogram *stats.Histogram
	// Metrics, if non-nil, receives the server's request counter and
	// service-latency histogram (labeled app="memcached" and the
	// request priority level) — typically Runtime.Metrics(), so one
	// /metrics scrape covers scheduler and application together.
	Metrics *metrics.Registry
}

// ICilkServer is the task-parallel Memcached port (Section 3 of the
// paper): the event loop is gone; each client connection is a future
// routine whose body is straight-line code — read a request
// (suspending on an I/O future when the socket is dry), execute it,
// write the reply. The scheduler transparently multiplexes the
// hundreds of concurrent connection routines.
//
// The server borrows the Store and the Runtime it is built with until
// Close. Each routine takes both as parameters when it starts, so once
// Close has returned, and the crawler and every connection routine
// started before it have returned, the server holds neither, even
// while the server value or a metrics closure over it stays reachable.
type ICilkServer struct {
	cfg ICilkConfig

	// mu orders Close against HandleConn, StartCrawler and the
	// crawler's naps. rt == nil means closed.
	mu       sync.Mutex
	store    *Store
	rt       *icilk.Runtime
	crawler  *icilk.Future
	nap      *icilk.Future // the crawler's sleep, rearmed for each nap
	napTimer *time.Timer   // completes nap, unless Close stops it first

	conns atomic.Int64

	reqs *metrics.Counter   // nil unless cfg.Metrics is set
	lat  *metrics.Histogram // nil unless cfg.Metrics is set
	// timed: someone listens to request timing (ServiceHistogram or
	// Metrics); without a sink the request loops read no clock at all.
	timed bool
}

// NewICilkServer wraps a store and a runtime.
func NewICilkServer(store *Store, rt *icilk.Runtime, cfg ICilkConfig) *ICilkServer {
	s := &ICilkServer{store: store, rt: rt, cfg: cfg}
	if reg := cfg.Metrics; reg != nil {
		app := metrics.L("app", "memcached")
		lvl := metrics.LevelLabel(0)
		s.reqs = reg.Counter("icilk_app_requests_total",
			"Application requests served.", app, lvl)
		s.lat = reg.Histogram("icilk_app_request_latency_seconds",
			"Application request service latency (parsed to reply written).",
			nil, app, lvl)
		reg.GaugeFunc("icilk_app_open_conns",
			"Live connection-handling future routines.",
			func() float64 { return float64(s.ActiveConns()) }, app)
	}
	s.timed = cfg.ServiceHistogram != nil || s.reqs != nil
	return s
}

// StartCrawler launches the background LRU crawler as a low-priority
// future routine — the pthread version's background thread, expressed
// as a task. Serve calls it automatically; real-network frontends
// that bypass Serve call it themselves. After Close it does nothing.
//
// Every nap of the crawler is one I/O future and one timer, made here
// for the server's lifetime: the timer's function completes the nap
// itself, on the timer's goroutine, so a nap allocates nothing.
func (s *ICilkServer) StartCrawler() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crawler != nil || s.rt == nil {
		return
	}
	rt, store := s.rt, s.store
	nap := rt.NewIOFuture()
	s.nap, s.napTimer = nap, time.AfterFunc(crawlInterval, func() { nap.Complete(nil) })
	s.crawler = rt.Submit(rt.Levels()-1, func(t *icilk.Task) any {
		for i := 0; s.startNap(nap, i); i++ {
			store.CrawlShard(i)
			nap.Get(t)
		}
		return nil
	})
}

// startNap arms the crawler's nap number i, crawlInterval long, and
// reports whether the crawler goes on: false once Close has begun.
// StartCrawler armed the first nap; each later one rearms the nap
// future the crawler has just seen complete and resets the timer.
// The nap is a Runtime.Sleep that Close can cut short: whichever of
// the timer and Close's timer.Stop wins completes the future, exactly
// once.
func (s *ICilkServer) startNap(nap *icilk.Future, i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rt == nil {
		return false
	}
	if i > 0 {
		nap.Rearm()
		s.napTimer.Reset(crawlInterval)
	}
	return true
}

// Serve accepts connections until the listener closes, submitting one
// future routine per connection. It blocks; run it on a goroutine.
func (s *ICilkServer) Serve(ln *netsim.Listener) {
	s.StartCrawler()
	for {
		ep, err := ln.Accept()
		if err != nil {
			return
		}
		s.HandleConn(ep)
	}
}

// Conn is the connection surface the server needs: the icilk I/O
// future interface plus Close. Both netsim.Endpoint and netreal.Conn
// satisfy it.
type Conn interface {
	icilk.Conn
	Close() error
}

// HandleConn submits a connection-handling future routine for ep and
// returns its future (which resolves when the client disconnects).
// Real-network frontends (cmd/memcached-server) call this directly
// with adapted TCP connections. After Close it closes ep and returns
// an already-completed future without starting a routine.
func (s *ICilkServer) HandleConn(ep Conn) *icilk.Future {
	s.mu.Lock()
	rt, store := s.rt, s.store
	s.mu.Unlock()
	if rt == nil {
		ep.Close()
		return closedConn
	}
	s.conns.Add(1)
	return rt.Submit(0, func(t *icilk.Task) any {
		defer s.conns.Add(-1)
		s.handleConn(t, rt, store, ep)
		return nil
	})
}

// closedConn is what HandleConn returns after Close: complete from
// the start and bound to no runtime, so a late connection pins nothing
// the server has let go of.
var closedConn = func() *icilk.Future {
	f := new(icilk.Future)
	f.Complete(nil)
	return f
}()

// writeBufferer is the optional coalescing surface a connection may
// expose (netsim endpoints are write-through until a server opts in;
// netreal connections always coalesce).
type writeBufferer interface{ BufferWrites() }

// handleConn is the whole per-connection logic. Contrast with the
// pthread frontend's connState/step state machine: I/O futures give a
// synchronous interface, so the control flow reads top to bottom.
//
// The request loop is allocation-free at steady state: lines and data
// blocks are views into the reader's buffer, parsing is in place, and
// replies are encoded into a per-connection scratch buffer. Replies
// coalesce in the connection's write buffer and flush when the loop
// suspends for more input (Runtime.Read's auto-flush).
func (s *ICilkServer) handleConn(t *icilk.Task, rt *icilk.Runtime, store *Store, ep Conn) {
	defer ep.Close()
	if b, ok := ep.(writeBufferer); ok {
		b.BufferWrites()
	}
	lr := rt.NewLineReader(ep)
	var (
		req        RequestB
		reply      []byte // per-connection response scratch
		keyScratch []byte
	)
	sinceYield := 0
	for {
		line, err := lr.ReadLineBytes(t)
		if err != nil {
			if errors.Is(err, icilk.ErrLineTooLong) {
				ep.Write(errReplyLineTooLong)
			}
			return // EOF: client disconnected
		}
		needData, perr := ParseCommandB(line, &req)
		if perr != nil {
			ep.Write(perr)
			if closesConn(perr) {
				return
			}
			continue
		}
		if req.Op == opSkip {
			continue
		}
		if needData >= 0 {
			// The key is a view into the command line; reading the data
			// block may compact the buffer under it, so hold it in
			// per-connection scratch across the read.
			keyScratch = append(keyScratch[:0], req.Key...)
			req.Key = keyScratch
			raw, err := lr.ReadExactBytes(t, needData+2)
			if err != nil {
				return
			}
			if bad := req.SetData(raw); bad != nil {
				ep.Write(bad)
				continue
			}
		}
		var t0 time.Time
		if s.timed {
			t0 = time.Now()
		}
		var quit bool
		if req.Op == opStats && len(req.Keys) == 3 && string(req.Keys[0]) == "cachedump" {
			// Whole-store scan: intercepted before the sequential
			// executor and run as a data-parallel sweep at the lowest
			// level. Reply bytes are identical to ExecuteAppend's.
			reply = s.cachedumpParallel(t, rt, store, string(req.Keys[1]), string(req.Keys[2]), reply[:0])
		} else {
			reply, quit = ExecuteAppend(store, &req, reply[:0])
		}
		if len(reply) > 0 {
			ep.Write(reply)
		}
		if s.timed {
			s.recordRequest(time.Since(t0))
		}
		if quit {
			return
		}
		// Fairness among pipelined requests: after a batch, take an
		// explicit scheduling point (the pthread baseline's voluntary
		// yield; here it is also a promptness check). Flush first: the
		// yield may park this routine for a while and the replies so
		// far must not wait on it.
		sinceYield++
		if sinceYield >= batchLimit && lr.Buffered() {
			sinceYield = 0
			ep.Flush()
			t.Yield()
		}
	}
}

// cachedumpParallel serves "stats cachedump <shard|all> <limit>" as a
// future routine at the lowest level whose body scans the selected
// shards with a data-parallel Map — one loop iteration per shard
// snapshot, each a lock-bounded LRU walk. The connection routine
// blocks on the scan future (suspending, not spinning), the scan's
// split points are promptness checks, and the rendered bytes match
// the sequential cachedumpAppend exactly: same per-shard snapshots,
// same shard order, same global limit, same renderer.
func (s *ICilkServer) cachedumpParallel(t *icilk.Task, rt *icilk.Runtime, store *Store, shardSel, limitStr string, dst []byte) []byte {
	shards, limit, ok := cachedumpArgs(store, shardSel, limitStr)
	if !ok {
		return append(dst, replyBadCachedump...)
	}
	f := t.FutCreate(rt.Levels()-1, func(ct *icilk.Task) any {
		return icilk.Map(ct, shards, 1, func(si int) []DumpEntry {
			return store.DumpShard(si, limit)
		})
	})
	perShard := f.Get(t).([][]DumpEntry)
	return appendDumpEntries(dst, perShard, limit)
}

// recordRequest charges a completed request's service time to the
// configured latency sinks.
func (s *ICilkServer) recordRequest(d time.Duration) {
	if h := s.cfg.ServiceHistogram; h != nil {
		h.Record(d)
	}
	if s.reqs != nil {
		s.reqs.Inc()
		s.lat.Observe(d)
	}
}

// ActiveConns returns the number of live connection routines.
func (s *ICilkServer) ActiveConns() int64 { return s.conns.Load() }

// Close stops the crawler, cutting its pending crawlInterval short,
// and waits for it; then the server lets go of its store and runtime.
// Close the listener first. Connection routines already running keep
// serving their clients from the store they started with and exit
// when those clients disconnect; connections handed over after Close
// are closed at once. The store is the caller's to reuse or drop once
// those routines have returned.
//
// If the runtime is already closed, Close does not wait for the
// crawler, which a closed runtime never runs again. A Runtime.Close
// running concurrently with Close is the caller's error: Close may
// then wait forever.
func (s *ICilkServer) Close() {
	s.mu.Lock()
	rt, crawler, nap, napTimer := s.rt, s.crawler, s.nap, s.napTimer
	s.store, s.rt, s.crawler, s.nap, s.napTimer = nil, nil, nil, nil, nil
	s.mu.Unlock()
	if rt == nil {
		return
	}
	if napTimer != nil && napTimer.Stop() {
		nap.Complete(nil)
	}
	if crawler != nil && rt.Health().Ready {
		crawler.Wait()
	}
}
