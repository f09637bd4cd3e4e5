package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"icilk"
	"icilk/internal/memcached"
	"icilk/internal/netpoll"
	"icilk/internal/netreal"
	"icilk/internal/xrand"
)

// Request kinds of the memcached workloads.
const (
	kGet uint8 = iota
	kSet
	kMget
)

const (
	mgetKeys = 16
	// satPipeline is how many requests each connection keeps in
	// flight during the closed-loop sat phase.
	satPipeline = 8
)

// mcConfig is the traffic mix of one memcached workload. The stack
// under test is identical across them.
type mcConfig struct {
	keys     int     // key space; a power of two
	valueLen int     // bytes per value
	zipf     float64 // key popularity exponent; 0 = uniform
	setFrac  float64 // share of requests that are sets
	mgetFrac float64 // share that are 16-key multi-gets; the rest are single gets
	maxBytes int64   // StoreConfig.MaxBytes; 0 = unbounded, so no eviction
}

type mcWorkload struct {
	workloadBase
	cfg   mcConfig
	conns int

	// Generator state, fixed by the seed.
	keyBytes [][]byte
	block    []byte             // every value is a window into this
	genVers  []uint32           // versions handed out while generating schedules
	mgets    [][mgetKeys]uint32 // key lists of the scheduled multi-gets, by op.ver
	mgetMin  [][mgetKeys]uint32 // per multi-get: acked version of each key at send time
	issued   []atomic.Uint32    // newest version sent per key
	acked    []atomic.Uint32    // newest version the server has acknowledged per key

	// System under test.
	rt       *icilk.Runtime
	store    *memcached.Store
	srv      *memcached.ICilkServer
	group    *netpoll.Group
	nstats   *netreal.Stats
	ln       net.Listener
	accepted chan *icilk.Future
	acceptWG sync.WaitGroup
	handlers []*icilk.Future
	tr       *connTracer // nil unless this is a traced run

	cli    []*cliConn
	recvWG sync.WaitGroup
}

func newMC(name string, cfg mcConfig, rates phaseRates, limit time.Duration) *mcWorkload {
	return &mcWorkload{
		workloadBase: workloadBase{wname: name, rates: rates, limit: limit, primary: -1},
		cfg:          cfg,
		conns:        8 * nproc(),
	}
}

// keyOf scatters popularity ranks over the key space (and so over
// store shards and writer connections) with an odd multiplier, which
// is a bijection on a power-of-two range.
func (w *mcWorkload) keyOf(rank uint32) uint32 {
	return rank * 2654435761 & uint32(w.cfg.keys-1)
}

func (w *mcWorkload) valueOf(key, ver uint32) []byte {
	span := uint64(len(w.block) - w.cfg.valueLen)
	off := xrand.Mix(uint64(key)<<32|uint64(ver), 0x6d63) % span
	return w.block[off : off+uint64(w.cfg.valueLen)]
}

// keyPicker draws keys for one request stream with the workload's
// popularity distribution.
type keyPicker struct {
	w    *mcWorkload
	r    *xrand.Rand
	zipf *xrand.Zipf // nil when uniform
}

func (w *mcWorkload) newKeyPicker(r *xrand.Rand) keyPicker {
	p := keyPicker{w: w, r: r}
	if w.cfg.zipf > 0 {
		p.zipf = xrand.NewZipf(r, w.cfg.zipf, uint64(w.cfg.keys))
	}
	return p
}

func (p keyPicker) key() uint32 {
	if p.zipf != nil {
		return p.w.keyOf(uint32(p.zipf.Uint64()))
	}
	return uint32(p.r.Intn(p.w.cfg.keys))
}

// fillOp draws one request. A key's sets all travel on connection
// key mod conns, so the server applies them in version order and the
// client can bound what any later get may legally return; gets and
// multi-gets use any connection.
func (w *mcWorkload) fillOp(p keyPicker, o *op) {
	r := p.r
	u := r.Float64()
	switch {
	case u < w.cfg.setFrac:
		o.kind = kSet
		o.key = p.key()
		o.conn = uint8(int(o.key) % w.conns)
		w.genVers[o.key]++
		o.ver = w.genVers[o.key]
	case u < w.cfg.setFrac+w.cfg.mgetFrac:
		o.kind = kMget
		o.conn = uint8(r.Intn(w.conns))
		var ks [mgetKeys]uint32
		for i := range ks {
			ks[i] = p.key()
		}
		o.ver = uint32(len(w.mgets))
		w.mgets = append(w.mgets, ks)
	default:
		o.kind = kGet
		o.key = p.key()
		o.conn = uint8(r.Intn(w.conns))
	}
}

func (w *mcWorkload) generate(seed uint64, phases []*phase, h *scheduleHash) {
	w.seed = seed
	w.keyBytes = make([][]byte, w.cfg.keys)
	for i := range w.keyBytes {
		w.keyBytes[i] = []byte(fmt.Sprintf("key:%08d", i))
	}
	br := xrand.New(0x76616c756573) // value bytes do not depend on the seed
	w.block = make([]byte, 2*w.cfg.valueLen+4096)
	for i := 0; i+8 <= len(w.block); i += 8 {
		v := br.Uint64()
		for j := 0; j < 8; j++ {
			w.block[i+j] = 'a' + byte(v>>(8*j))%26
		}
	}
	w.genVers = make([]uint32, w.cfg.keys)
	w.issued = make([]atomic.Uint32, w.cfg.keys)
	w.acked = make([]atomic.Uint32, w.cfg.keys)
	for _, ph := range phases {
		if ph.rate == 0 {
			continue
		}
		picker := w.newKeyPicker(xrand.New(phaseSeed(seed, w.wname, ph.name)))
		poisson(ph, picker.r, func(_ *xrand.Rand, o *op) { w.fillOp(picker, o) })
		h.phase(ph)
	}
	for _, ks := range w.mgets {
		h.words(ks[:]...)
	}
	w.mgetMin = make([][mgetKeys]uint32, len(w.mgets))
	// The sat streams are generated while they run; fingerprint the
	// head of each.
	for c := 0; c < w.conns; c++ {
		s := w.newSatStream(c)
		for i := 0; i < 256; i++ {
			o, ks := s.next()
			h.words(uint32(o.kind), o.key)
			h.words(ks[:]...)
		}
	}
}

// satStream is one connection's closed-loop request sequence.
type satStream struct {
	keyPicker
	conn int
}

func (w *mcWorkload) newSatStream(conn int) *satStream {
	r := xrand.New(phaseSeed(w.seed, w.wname, "sat/"+strconv.Itoa(conn)))
	return &satStream{keyPicker: w.newKeyPicker(r), conn: conn}
}

func (s *satStream) next() (o op, ks [mgetKeys]uint32) {
	o.conn = uint8(s.conn)
	u := s.r.Float64()
	switch {
	case u < s.w.cfg.setFrac:
		o.kind = kSet
		// Move the key into this connection's writer class.
		k := int(s.key())
		k = k - k%s.w.conns + s.conn
		if k >= s.w.cfg.keys {
			k -= s.w.conns
		}
		o.key = uint32(k)
	case u < s.w.cfg.setFrac+s.w.cfg.mgetFrac:
		o.kind = kMget
		for i := range ks {
			ks[i] = s.key()
		}
	default:
		o.kind = kGet
		o.key = s.key()
	}
	return o, ks
}

// ---- system under test -------------------------------------------------

func (w *mcWorkload) setup(traced bool) error {
	rt, err := icilk.New(icilk.Config{Workers: nproc(), IOThreads: nproc(), Scheduler: icilk.Prompt})
	if err != nil {
		return err
	}
	w.rt = rt
	w.store = memcached.NewStore(memcached.StoreConfig{MaxBytes: w.cfg.maxBytes})
	for k := range w.keyBytes {
		w.store.SetB(memcached.ModeSet, w.keyBytes[k], w.valueOf(uint32(k), 0), 0, 0, 0)
	}
	w.store.Stats.Reset()
	w.srv = memcached.NewICilkServer(w.store, rt, memcached.ICilkConfig{})
	w.srv.StartCrawler()
	if w.group, err = netpoll.Open(1); err != nil {
		return fmt.Errorf("netpoll: %w", err)
	}
	w.nstats = &netreal.Stats{}
	var batcher netpoll.Batcher = rt.IOBatcher()
	w.tr = nil
	if traced {
		w.tr = newConnTracer(batcher)
		batcher = w.tr
	}
	if w.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	w.accepted = make(chan *icilk.Future, w.conns+1)
	w.acceptWG.Add(1)
	go func() {
		defer w.acceptWG.Done()
		opts := netreal.Options{Stats: w.nstats, Batcher: batcher, Mode: netreal.ModePoll, Group: w.group}
		for {
			nc, err := w.ln.Accept()
			if err != nil {
				return
			}
			c := netreal.WrapOptions(nc, opts)
			if !c.PollerActive() {
				panic("benchmark: netreal fell back to the pump transport")
			}
			var sc memcached.Conn = c
			if w.tr != nil {
				sc = w.tr.wrap(c)
			}
			w.accepted <- w.srv.HandleConn(sc)
		}
	}()
	w.cli = w.cli[:0]
	w.handlers = w.handlers[:0]
	for i := 0; i < w.conns+1; i++ { // one extra for the golden check
		nc, err := net.Dial("tcp", w.ln.Addr().String())
		if err != nil {
			return err
		}
		w.handlers = append(w.handlers, <-w.accepted)
		w.cli = append(w.cli, &cliConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)})
	}
	gold := w.cli[w.conns]
	w.cli = w.cli[:w.conns]
	err = w.goldenCheck(gold)
	gold.nc.Close()
	if err != nil {
		return fmt.Errorf("golden check: %w", err)
	}
	for k := range w.issued {
		w.issued[k].Store(0)
		w.acked[k].Store(0)
	}
	for _, c := range w.cli {
		// Sized so the pacer's non-blocking send only fails when a
		// connection has stopped answering altogether.
		c.inflight = make(chan ref, 1<<16)
		w.recvWG.Add(1)
		go w.receive(c)
	}
	return nil
}

// goldenCheck exercises every reply shape once on a fresh connection:
// a preloaded hit, a miss, a set and its read-back.
func (w *mcWorkload) goldenCheck(c *cliConn) error {
	last := uint32(w.cfg.keys - 1) // resident even when the preload overflowed MaxBytes
	want := string(memcached.AppendGetEnd(memcached.AppendValueLine(nil, w.keyBytes[last], w.valueOf(last, 0), 0, 0, false)))
	steps := []struct{ req, want string }{
		{"get " + string(w.keyBytes[last]) + "\r\n", want},
		{"get golden:absent\r\n", "END\r\n"},
		{"set golden:k 7 0 5\r\nhello\r\n", "STORED\r\n"},
		{"get golden:k\r\n", "VALUE golden:k 7 5\r\nhello\r\nEND\r\n"},
		{"delete golden:k\r\n", "DELETED\r\n"},
	}
	c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	for _, s := range steps {
		if _, err := c.nc.Write([]byte(s.req)); err != nil {
			return err
		}
		got := make([]byte, len(s.want))
		if _, err := io.ReadFull(c.br, got); err != nil {
			return fmt.Errorf("%q: %w", s.req, err)
		}
		if string(got) != s.want {
			return fmt.Errorf("%q: got %q, want %q", s.req, got, s.want)
		}
	}
	return nil
}

func (w *mcWorkload) teardown() {
	for _, c := range w.cli {
		close(c.inflight)
	}
	w.recvWG.Wait()
	for _, c := range w.cli {
		c.nc.Close()
	}
	for _, f := range w.handlers {
		f.Wait() // connection routines return on EOF
	}
	w.ln.Close()
	w.acceptWG.Wait()
	w.srv.Close()
	w.rt.Close()
	w.group.Close()
}

// ---- client side ---------------------------------------------------------

// ref ties a reply back to its request: text-protocol replies come
// back in request order per connection, so a FIFO is all it takes.
type ref struct {
	rec    *phaseRec
	i      int32
	minVer uint32
}

type cliConn struct {
	nc       net.Conn
	br       *bufio.Reader
	wbuf     []byte   // pacer-owned pending request bytes
	inflight chan ref // pacer -> receiver
	broken   bool
}

func (w *mcWorkload) appendRequest(dst []byte, o *op, ks *[mgetKeys]uint32) []byte {
	switch o.kind {
	case kSet:
		dst = append(dst, "set "...)
		dst = append(dst, w.keyBytes[o.key]...)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(o.ver), 10)
		dst = append(dst, " 0 "...)
		dst = strconv.AppendUint(dst, uint64(w.cfg.valueLen), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, w.valueOf(o.key, o.ver)...)
	case kGet:
		dst = append(dst, "get "...)
		dst = append(dst, w.keyBytes[o.key]...)
	case kMget:
		dst = append(dst, "get"...)
		for _, k := range ks {
			dst = append(dst, ' ')
			dst = append(dst, w.keyBytes[k]...)
		}
	}
	return append(dst, '\r', '\n')
}

func (w *mcWorkload) runOpen(rec *phaseRec) {
	ops := rec.ph.ops
	send := func(i int) {
		o := &ops[i]
		c := w.cli[o.conn]
		var minVer uint32
		var ks *[mgetKeys]uint32
		switch o.kind {
		case kSet:
			w.issued[o.key].Store(o.ver)
		case kGet:
			minVer = w.acked[o.key].Load()
		case kMget:
			ks = &w.mgets[o.ver]
			for j, k := range ks {
				w.mgetMin[o.ver][j] = w.acked[k].Load()
			}
		}
		select {
		case c.inflight <- ref{rec: rec, i: int32(i), minVer: minVer}:
			c.wbuf = w.appendRequest(c.wbuf, o, ks)
		default:
			rec.complete(i, false)
		}
	}
	flush := func() {
		for _, c := range w.cli {
			if len(c.wbuf) == 0 {
				continue
			}
			if !c.broken {
				if _, err := c.nc.Write(c.wbuf); err != nil {
					c.broken = true
				}
			}
			c.wbuf = c.wbuf[:0]
		}
	}
	pace(rec, send, flush)
}

func (w *mcWorkload) receive(c *cliConn) {
	defer w.recvWG.Done()
	dead := false
	for r := range c.inflight {
		if dead {
			continue // no reply will come; the slot stays outstanding
		}
		o := &r.rec.ph.ops[r.i]
		var ks, mins *[mgetKeys]uint32
		if o.kind == kMget {
			ks, mins = &w.mgets[o.ver], &w.mgetMin[o.ver]
		}
		ok, err := w.readReply(c.br, o, r.minVer, ks, mins)
		if err != nil {
			dead = true
			continue
		}
		r.rec.complete(int(r.i), ok)
	}
}

var (
	replyStored = []byte("STORED\r\n")
	replyEnd    = []byte("END\r\n")
	valuePrefix = []byte("VALUE ")
)

// readReply consumes one reply and checks it. A get must return bytes
// derived from (key, version) for a version no older than the last
// one acknowledged before the get was sent and no newer than the last
// one sent; a miss is correct only where the store evicts. err means
// the stream is unusable.
func (w *mcWorkload) readReply(br *bufio.Reader, o *op, minVer uint32, ks, mins *[mgetKeys]uint32) (ok bool, err error) {
	if o.kind == kSet {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return false, err
		}
		if !bytes.Equal(line, replyStored) {
			return false, nil
		}
		w.acked[o.key].Store(o.ver)
		return true, nil
	}
	ok = true
	hits, next := 0, 0 // multi-get replies arrive in request key order, misses skipped
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return false, err
		}
		if bytes.Equal(line, replyEnd) {
			break
		}
		key, ver, n, perr := parseValueLine(line)
		if perr != nil {
			return false, perr
		}
		// key aliases the reader's buffer: match it before the data
		// block read can slide the buffer under it.
		var want, lower uint32
		matched := false
		if o.kind == kGet {
			want, lower = o.key, minVer
			matched = next == 0 && bytes.Equal(key, w.keyBytes[want])
			next = 1
		} else {
			for next < mgetKeys && !matched {
				want, lower = ks[next], mins[next]
				matched = bytes.Equal(key, w.keyBytes[want])
				next++
			}
		}
		data, err := br.Peek(n + 2)
		if err != nil {
			return false, err
		}
		if !matched || n != w.cfg.valueLen || ver < lower || ver > w.issued[want].Load() ||
			!bytes.Equal(data[:n], w.valueOf(want, ver)) {
			ok = false
		}
		hits++
		br.Discard(n + 2)
	}
	asked := 1
	if o.kind == kMget {
		asked = mgetKeys
	}
	if hits < asked && w.cfg.maxBytes == 0 {
		ok = false // nothing evicts here, so every key must hit
	}
	return ok, nil
}

var errBadValueLine = errors.New("malformed VALUE line")

// parseValueLine splits "VALUE <key> <flags> <bytes>\r\n".
func parseValueLine(line []byte) (key []byte, flags uint32, n int, err error) {
	if !bytes.HasPrefix(line, valuePrefix) || len(line) < 2 {
		return nil, 0, 0, errBadValueLine
	}
	rest := line[len(valuePrefix) : len(line)-2]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return nil, 0, 0, errBadValueLine
	}
	key, rest = rest[:sp], rest[sp+1:]
	sp = bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return nil, 0, 0, errBadValueLine
	}
	f, ok1 := atou32(rest[:sp])
	l, ok2 := atou32(rest[sp+1:])
	if !ok1 || !ok2 {
		return nil, 0, 0, errBadValueLine
	}
	return key, f, int(l), nil
}

// atou32 parses a decimal without allocating (strconv wants a string).
func atou32(b []byte) (uint32, bool) {
	if len(b) == 0 || len(b) > 10 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return uint32(v), v <= 1<<32-1
}

// ---- closed-loop sat phase -------------------------------------------------

// runSat: every connection keeps satPipeline requests in flight. The
// open-loop receivers are parked on their empty FIFOs meanwhile (the
// driver refuses to get here with replies outstanding), so each
// connection's reader belongs to its sat goroutine.
func (w *mcWorkload) runSat(dur time.Duration) satResult {
	res := make([]satResult, len(w.cli))
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	deadline := start.Add(dur)
	for ci, c := range w.cli {
		wg.Add(1)
		go func(ci int, c *cliConn) {
			defer wg.Done()
			w.satConn(ci, c, deadline, &res[ci])
		}(ci, c)
	}
	wg.Wait()
	total := satResult{elapsed: dur, cpu: cpuTime() - cpu0}
	for _, r := range res {
		total.attempted += r.attempted
		total.completed += r.completed
		total.failed += r.failed
	}
	return total
}

func (w *mcWorkload) satConn(ci int, c *cliConn, deadline time.Time, res *satResult) {
	type pending struct {
		o        op
		ks, mins [mgetKeys]uint32
		minVer   uint32
	}
	s := w.newSatStream(ci)
	var ring [satPipeline]pending
	head, n := 0, 0
	issue := func() {
		p := &ring[(head+n)%satPipeline]
		p.o, p.ks = s.next()
		switch p.o.kind {
		case kSet:
			p.o.ver = w.issued[p.o.key].Add(1) // this connection is the key's only writer
		case kGet:
			p.minVer = w.acked[p.o.key].Load()
		case kMget:
			for j, k := range p.ks {
				p.mins[j] = w.acked[k].Load()
			}
		}
		c.wbuf = w.appendRequest(c.wbuf, &p.o, &p.ks)
		n++
		res.attempted++
	}
	for n < satPipeline {
		issue()
	}
	for n > 0 {
		if len(c.wbuf) > 0 && c.br.Buffered() == 0 {
			_, err := c.nc.Write(c.wbuf)
			c.wbuf = c.wbuf[:0]
			if err != nil {
				res.failed += int64(n)
				return
			}
		}
		p := &ring[head]
		ok, err := w.readReply(c.br, &p.o, p.minVer, &p.ks, &p.mins)
		if err != nil {
			res.failed += int64(n)
			return
		}
		head, n = (head+1)%satPipeline, n-1
		now := time.Now()
		switch {
		case !ok:
			res.failed++
		case !now.After(deadline):
			res.completed++
		}
		if now.Before(deadline) {
			issue()
		}
	}
}

func (w *mcWorkload) counters() counters {
	var c counters
	readRuntime(&c, w.rt)
	readNet(&c, w.nstats, w.store)
	return c
}

func (w *mcWorkload) opsDone(rec *phaseRec) float64 { return correctIn(rec) }
