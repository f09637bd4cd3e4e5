package memcached

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"icilk"
	"icilk/internal/metrics"
	"icilk/internal/netsim"
	"icilk/internal/predict"
	"icilk/internal/stats"
)

// ICilkConfig configures the task-parallel port.
type ICilkConfig struct {
	// RequestLevel is the priority level for client request handling
	// (default 0, the highest).
	RequestLevel int
	// CrawlerLevel is the priority level for the background LRU
	// crawler (default: lowest configured level).
	CrawlerLevel int
	// CrawlInterval paces the crawler. Default 100ms.
	CrawlInterval time.Duration
	// BatchLimit bounds how many pipelined requests a connection
	// handler processes before yielding a scheduling point. Default
	// 20, matching the pthread baseline's fairness threshold.
	BatchLimit int
	// ScanLevel is the priority level at which whole-store scan
	// requests ("stats cachedump") execute (default: lowest configured
	// level, like the crawler). The scan runs as a future routine at
	// this level with a data-parallel shard sweep inside it, so a
	// multi-megabyte dump neither blocks its connection's siblings nor
	// competes with point requests at RequestLevel — and interactive
	// traffic preempts it at every split point.
	ScanLevel int
	// ServiceHistogram, if non-nil, records per-request service time
	// (request fully parsed to reply written) — constant-memory
	// latency tracking for long-running deployments.
	ServiceHistogram *stats.Histogram
	// Metrics, if non-nil, receives the server's request counter and
	// service-latency histogram (labeled app="memcached" and the
	// request priority level) — typically Runtime.Metrics(), so one
	// /metrics scrape covers scheduler and application together.
	Metrics *metrics.Registry
	// Admission, if non-nil, gates every request: a shed request is
	// answered "SERVER_ERROR out of capacity" (text protocol) or a
	// temporary-failure status (binary protocol) without executing,
	// and the connection stays usable — exactly how real memcached
	// reports transient server-side pressure.
	Admission *icilk.AdmissionController
	// RequestTimeout, with Admission set, classifies requests whose
	// service time exceeds it as late in the admission accounting
	// (they still receive their reply — a finished result is worth
	// sending even if the deadline was missed).
	RequestTimeout time.Duration
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
	nap      *icilk.Future // the crawler's pending sleep
	napTimer *time.Timer   // completes nap, unless Close stops it first

	conns atomic.Int64

	reqs *metrics.Counter   // nil unless cfg.Metrics is set
	lat  *metrics.Histogram // nil unless cfg.Metrics is set
	// timed: someone listens to request timing (Admission, Service-
	// Histogram or Metrics); without a sink the request loops read no
	// clock at all.
	timed bool
}

// NewICilkServer wraps a store and a runtime.
func NewICilkServer(store *Store, rt *icilk.Runtime, cfg ICilkConfig) *ICilkServer {
	if cfg.CrawlInterval <= 0 {
		cfg.CrawlInterval = 100 * time.Millisecond
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = 20
	}
	if cfg.CrawlerLevel <= 0 {
		cfg.CrawlerLevel = rt.Levels() - 1
	}
	if cfg.ScanLevel <= 0 {
		cfg.ScanLevel = rt.Levels() - 1
	}
	s := &ICilkServer{store: store, rt: rt, cfg: cfg}
	if reg := cfg.Metrics; reg != nil {
		app := metrics.L("app", "memcached")
		lvl := metrics.LevelLabel(cfg.RequestLevel)
		s.reqs = reg.Counter("icilk_app_requests_total",
			"Application requests served.", app, lvl)
		s.lat = reg.Histogram("icilk_app_request_latency_seconds",
			"Application request service latency (parsed to reply written).",
			nil, app, lvl)
		reg.GaugeFunc("icilk_app_open_conns",
			"Live connection-handling future routines.",
			func() float64 { return float64(s.ActiveConns()) }, app)
	}
	s.timed = cfg.Admission != nil || cfg.ServiceHistogram != nil || s.reqs != nil
	return s
}

// StartCrawler launches the background LRU crawler as a low-priority
// future routine — the pthread version's background thread, expressed
// as a task. Serve calls it automatically; real-network frontends
// that bypass Serve call it themselves. After Close it does nothing.
func (s *ICilkServer) StartCrawler() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crawler != nil || s.rt == nil {
		return
	}
	rt, store := s.rt, s.store
	s.crawler = rt.Submit(s.cfg.CrawlerLevel, func(t *icilk.Task) any {
		for i := 0; ; i++ {
			nap := s.startNap(rt)
			if nap == nil {
				return nil
			}
			store.CrawlShard(i)
			nap.Get(t)
		}
	})
}

// startNap arms the crawler's next CrawlInterval and returns the I/O
// future that ends it, or nil once Close has begun. The nap is a
// Runtime.Sleep that Close can cut short: whichever of the timer and
// Close's timer.Stop wins completes the future, exactly once.
func (s *ICilkServer) startNap(rt *icilk.Runtime) *icilk.Future {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rt == nil {
		return nil
	}
	f := rt.NewIOFuture()
	s.nap, s.napTimer = f, time.AfterFunc(s.cfg.CrawlInterval, func() { rt.CompleteIO(f, nil) })
	return f
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
	return rt.Submit(s.cfg.RequestLevel, func(t *icilk.Task) any {
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
	// Protocol sniff, as real memcached does: a 0x80 first byte means
	// the client speaks the binary protocol.
	first, err := lr.PeekByte(t)
	if err != nil {
		return
	}
	if first == binReqMagic {
		s.handleBinaryConn(t, store, ep, lr)
		return
	}
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
		// The request's genuine arrival: its first line is off the
		// wire. Queueing from here on (data-block reads, admission) is
		// real sojourn the admission estimators should see.
		var arrival, t0 time.Time
		if s.timed {
			arrival = time.Now()
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
		// Admission decision only after the request is fully read:
		// shedding before consuming the data block would desync the
		// protocol framing. The class (opcode × value-size bucket) and
		// the arrival timestamp let the predictive policy estimate this
		// request's cost and remaining slack.
		var tk icilk.AdmissionTicket
		if s.cfg.Admission != nil {
			cls := predict.Class{Op: uint8(req.Op), Size: predict.SizeBucket(len(req.Data))}
			var aerr error
			if tk, aerr = s.cfg.Admission.AcquireClassSince(s.cfg.RequestLevel, cls, arrival); aerr != nil {
				ep.Write(replyOutOfCapacity)
				continue
			}
		}
		if s.timed {
			t0 = time.Now()
		}
		var quit bool
		if req.Op == opStats && len(req.Keys) == 3 && string(req.Keys[0]) == "cachedump" {
			// Whole-store scan: intercepted before the sequential
			// executor and run as a data-parallel sweep at ScanLevel.
			// Reply bytes are identical to ExecuteAppend's.
			reply = s.cachedumpParallel(t, store, string(req.Keys[1]), string(req.Keys[2]), reply[:0])
		} else {
			reply, quit = ExecuteAppend(store, &req, reply[:0])
		}
		if len(reply) > 0 {
			ep.Write(reply)
		}
		if s.timed {
			s.recordRequest(tk, time.Since(t0))
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
		if sinceYield >= s.cfg.BatchLimit && lr.Buffered() {
			sinceYield = 0
			ep.Flush()
			t.Yield()
		}
	}
}

// handleBinaryConn serves the binary protocol: 24-byte headers plus
// length-prefixed bodies, read through the same suspending I/O-future
// reader (ReadExact instead of ReadLine — the framing is the only
// difference between the two protocol loops).
func (s *ICilkServer) handleBinaryConn(t *icilk.Task, store *Store, ep Conn, lr *icilk.LineReader) {
	var reply []byte // per-connection response scratch
	sinceYield := 0
	for {
		hdr, err := lr.ReadExactBytes(t, 24)
		if err != nil {
			return
		}
		var arrival, t0 time.Time
		if s.timed {
			arrival = time.Now()
		}
		h := parseBinHeader(hdr)
		if h.magic != binReqMagic {
			return // framing lost; drop the connection
		}
		if h.bodyLen > maxBinBody {
			ep.Write(appendBinError(reply[:0], h.opcode, binStatusTooLarge, h.opaque, "Too large."))
			return
		}
		var body []byte
		if h.bodyLen > 0 {
			body, err = lr.ReadExactBytes(t, int(h.bodyLen))
			if err != nil {
				return
			}
		}
		var tk icilk.AdmissionTicket
		if s.cfg.Admission != nil {
			// 0x80 | opcode keeps binary-protocol classes disjoint from
			// the text opCode space on a mixed-protocol server.
			cls := predict.Class{Op: 0x80 | h.opcode, Size: predict.SizeBucket(int(h.bodyLen))}
			var aerr error
			if tk, aerr = s.cfg.Admission.AcquireClassSince(s.cfg.RequestLevel, cls, arrival); aerr != nil {
				reply = appendBinError(reply[:0], h.opcode, binStatusTmpFail, h.opaque, "out of capacity")
				ep.Write(reply)
				continue
			}
		}
		if s.timed {
			t0 = time.Now()
		}
		var quit bool
		reply, quit = ExecuteBinaryAppend(store, h, body, reply[:0])
		if len(reply) > 0 {
			ep.Write(reply)
		}
		if s.timed {
			s.recordRequest(tk, time.Since(t0))
		}
		if quit {
			return
		}
		sinceYield++
		if sinceYield >= s.cfg.BatchLimit && lr.Buffered() {
			sinceYield = 0
			ep.Flush()
			t.Yield()
		}
	}
}

// cachedumpParallel serves "stats cachedump <shard|all> <limit>" as a
// future routine at ScanLevel whose body scans the selected shards
// with a data-parallel Map — one loop iteration per shard snapshot,
// each a lock-bounded LRU walk. The connection routine blocks on the
// scan future (suspending, not spinning), the scan's split points are
// promptness checks, and the rendered bytes match the sequential
// cachedumpAppend exactly: same per-shard snapshots, same shard
// order, same global limit, same renderer.
func (s *ICilkServer) cachedumpParallel(t *icilk.Task, store *Store, shardSel, limitStr string, dst []byte) []byte {
	shards, limit, ok := cachedumpArgs(store, shardSel, limitStr)
	if !ok {
		return append(dst, replyBadCachedump...)
	}
	f := t.FutCreate(s.cfg.ScanLevel, func(ct *icilk.Task) any {
		return icilk.Map(ct, shards, 1, func(si int) []DumpEntry {
			return store.DumpShard(si, limit)
		})
	})
	perShard := f.Get(t).([][]DumpEntry)
	return appendDumpEntries(dst, perShard, limit)
}

// recordRequest releases a completed request's admission ticket and
// charges its service time to the configured latency sinks.
func (s *ICilkServer) recordRequest(tk icilk.AdmissionTicket, d time.Duration) {
	if s.cfg.Admission != nil {
		s.cfg.Admission.Release(tk, s.cfg.RequestTimeout > 0 && d > s.cfg.RequestTimeout)
	}
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

// Close stops the crawler, cutting its pending CrawlInterval short,
// and waits for it; then the server lets go of its store and runtime.
// Close the listener first. Connection routines already running keep
// serving their clients from the store they started with and exit
// when those clients disconnect; connections handed over after Close
// are closed at once. The store is the caller's to reuse or drop once
// those routines have returned.
func (s *ICilkServer) Close() {
	s.mu.Lock()
	rt, crawler, nap, napTimer := s.rt, s.crawler, s.nap, s.napTimer
	s.store, s.rt, s.crawler, s.nap, s.napTimer = nil, nil, nil, nil, nil
	s.mu.Unlock()
	if rt == nil {
		return
	}
	if napTimer != nil && napTimer.Stop() {
		rt.CompleteIO(nap, nil)
	}
	if crawler != nil {
		crawler.Wait()
	}
}
