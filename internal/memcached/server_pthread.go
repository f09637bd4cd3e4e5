package memcached

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"icilk/internal/levent"
	"icilk/internal/netsim"
)

// PthreadConfig configures the baseline server.
type PthreadConfig struct {
	// Workers is the number of event-loop worker threads. The paper
	// (and the Memcached documentation) runs 4.
	Workers int
}

// PthreadServer is the baseline Memcached architecture: a main
// acceptor thread, N worker threads each running a libevent-style
// event loop, connections pinned to a worker at accept time, and
// request handling written as an explicit state machine inside the
// read callback.
//
// The server borrows the Store it is built with until Close; once
// Close has returned it holds neither the store nor its event bases.
type PthreadServer struct {
	wg   sync.WaitGroup
	next atomic.Int64 // round-robin connection assignment
	stop chan struct{}
	once sync.Once

	// mu orders Serve's start against Close. Callbacks read store
	// unlocked: Close drops both fields only after wg.Wait, when no
	// event loop is left to run one.
	mu    sync.Mutex
	store *Store
	bases []*levent.Base
}

// NewPthreadServer creates the server around an existing store.
func NewPthreadServer(store *Store, cfg PthreadConfig) *PthreadServer {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	s := &PthreadServer{store: store, stop: make(chan struct{})}
	s.bases = make([]*levent.Base, cfg.Workers)
	for i := range s.bases {
		s.bases[i] = levent.NewBase()
	}
	return s
}

// connState is the per-connection protocol state machine. The
// explicit needData/pending fields are the bookkeeping the paper
// criticizes: "the callback function effectively encodes a large
// state machine ... the logic for handling a single request is
// scattered across different switch statement cases."
type connState struct {
	ep       *netsim.Endpoint
	buf      []byte
	pos      int
	req      RequestB // in-place parsed command, reused per request
	pending  bool     // req is a storage command awaiting its data block
	needData int      // bytes outstanding for pending; -1 when none
	eof      bool
	key      []byte // storage-key scratch: the parsed key view dies when
	// the buffer compacts or grows before the data block arrives
	reply []byte // response encoding scratch
}

func (cs *connState) buffered() bool { return cs.pos < len(cs.buf) }

// compact drops the consumed prefix.
func (cs *connState) compact() {
	if cs.pos == 0 {
		return
	}
	rest := copy(cs.buf, cs.buf[cs.pos:])
	cs.buf = cs.buf[:rest]
	cs.pos = 0
}

// drain moves everything readable from the socket directly into the
// buffer's spare capacity (no intermediate copy; steady state does
// not allocate).
func (cs *connState) drain() {
	for {
		if len(cs.buf) == cap(cs.buf) {
			grown := make([]byte, len(cs.buf), max(2*cap(cs.buf), 4096))
			copy(grown, cs.buf)
			cs.buf = grown
		}
		n, err := cs.ep.TryRead(cs.buf[len(cs.buf):cap(cs.buf)])
		if n > 0 {
			cs.buf = cs.buf[:len(cs.buf)+n]
			continue
		}
		if err == io.EOF {
			cs.eof = true
		}
		return
	}
}

// step tries to make progress on one protocol transition. executed
// reports a completed request; progress reports any forward motion.
func (cs *connState) step(store *Store) (progress, executed, quit bool) {
	// State: waiting for a data block. The block executes in place —
	// req.Data stays a view into the buffer (SetB copies what it
	// keeps).
	if cs.pending {
		if len(cs.buf)-cs.pos < cs.needData+2 {
			return false, false, false
		}
		bad := cs.req.SetData(cs.buf[cs.pos : cs.pos+cs.needData+2])
		cs.pos += cs.needData + 2
		cs.pending = false
		cs.needData = -1
		if bad != nil {
			cs.ep.Write(bad)
			return true, true, false
		}
		var q bool
		cs.reply, q = ExecuteAppend(store, &cs.req, cs.reply[:0])
		if len(cs.reply) > 0 {
			cs.ep.Write(cs.reply)
		}
		return true, true, q
	}
	// State: waiting for a command line.
	idx := -1
	for i := cs.pos; i < len(cs.buf); i++ {
		if cs.buf[i] == '\n' {
			idx = i
			break
		}
	}
	if idx < 0 {
		if len(cs.buf)-cs.pos >= maxLineBytes {
			cs.ep.Write(errReplyLineTooLong)
			return true, false, true
		}
		return false, false, false
	}
	line := cs.buf[cs.pos:idx]
	cs.pos = idx + 1
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	needData, perr := ParseCommandB(line, &cs.req)
	if perr != nil {
		cs.ep.Write(perr)
		return true, true, closesConn(perr)
	}
	if cs.req.Op == opSkip {
		return true, false, false
	}
	if needData >= 0 {
		// Hold the key in connection scratch: drain/compact will move
		// the buffer under the parsed view before the block arrives.
		cs.key = append(cs.key[:0], cs.req.Key...)
		cs.req.Key = cs.key
		cs.pending = true
		cs.needData = needData
		return true, false, false
	}
	var q bool
	cs.reply, q = ExecuteAppend(store, &cs.req, cs.reply[:0])
	if len(cs.reply) > 0 {
		cs.ep.Write(cs.reply)
	}
	return true, true, q
}

// onReadable is the libevent read callback.
func (s *PthreadServer) onReadable(e *levent.Event) {
	cs := e.UserData().(*connState)
	cs.drain()
	executed := 0
	for executed < batchLimit {
		progress, exec, quit := cs.step(s.store)
		if quit {
			cs.ep.Close()
			return
		}
		if exec {
			executed++
		}
		if !progress {
			break
		}
	}
	// One peer notification per callback, however many replies the
	// batch produced.
	cs.ep.Flush()
	cs.compact()
	if cs.buffered() && executed >= batchLimit {
		// Voluntary yield: requeue behind other ready connections.
		e.Reactivate()
		return
	}
	if cs.eof && !cs.buffered() && !cs.pending {
		cs.ep.Close()
		return
	}
	e.Add()
}

// Serve accepts connections until the listener closes. It blocks;
// run it on its own goroutine. Stop the server by closing the
// listener and then calling Close; connections accepted after Close
// are closed at once.
func (s *PthreadServer) Serve(ln *netsim.Listener) {
	s.mu.Lock()
	store, bases := s.store, s.bases
	select {
	case <-s.stop:
	default:
		// Worker threads.
		for _, b := range bases {
			b := b
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				b.Dispatch()
			}()
		}
		// Background crawler thread.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			i := 0
			t := time.NewTicker(crawlInterval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					store.CrawlShard(i)
					i++
				}
			}
		}()
	}
	s.mu.Unlock()
	// Main thread: accept and pin connections round-robin.
	for {
		ep, err := ln.Accept()
		if err != nil {
			return
		}
		select {
		case <-s.stop:
			ep.Close() // no event loop is left to serve it
			continue
		default:
		}
		base := bases[int(s.next.Add(1))%len(bases)]
		ep.BufferWrites()
		cs := &connState{ep: ep, needData: -1}
		ev := base.NewReadEvent(ep, s.onReadable)
		ev.SetUserData(cs)
		ev.Add()
	}
}

// Close stops the event loops and the crawler, waits for them, and
// then lets go of the store and the bases. Call after closing the
// listener. Connections still open are abandoned: no callback runs
// after Close returns.
func (s *PthreadServer) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		close(s.stop)
		for _, b := range s.bases {
			b.Stop()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	s.mu.Lock()
	s.store, s.bases = nil, nil
	s.mu.Unlock()
}
