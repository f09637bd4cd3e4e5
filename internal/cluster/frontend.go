package cluster

import (
	"errors"
	"math/bits"
	"sync"
	"time"

	"icilk"
	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
	"icilk/internal/memcached"
	"icilk/internal/netsim"
	"icilk/internal/wire"
)

// The cluster frontend: each client connection is a future routine on
// one of the shard runtimes (the "receiving" runtime, assigned round-
// robin at accept). The routine parses each request once and routes:
//
//   - single-key commands whose owner is the receiving shard execute
//     inline;
//   - single-key commands owned elsewhere hop — the owner's runtime
//     executes them as a submitted future routine and the receiving
//     task joins through an I/O future (the paper's synchronous-
//     interface bridge, so the handler stays straight-line code);
//   - multi-key GETs split into per-owner-shard subtasks spawned on
//     the receiving runtime with FutCreate and joined by futures, the
//     per-key VALUE blocks land in per-slot scratch, and the reply is
//     assembled in original request key order;
//   - promoted hot keys read from the receiving shard's replica
//     (read-any) and fan mutations to every shard (write-all).

// getSlot is one key of an in-flight multi-get: the key view, the
// owning shard, and the per-slot reply scratch its VALUE block is
// encoded into (empty = miss). Slots are written by at most one
// fan-out subtask (the one handling their owner shard) and read by
// the parent only after joining every subtask.
type getSlot struct {
	key   []byte
	owner int32
	buf   []byte
}

// connState is the per-connection scratch: request parse state, reply
// buffer, and the multi-get slot array. Pooled so connection churn
// does not pay a fresh allocation set per dial.
type connState struct {
	req        memcached.RequestB
	reply      []byte
	keyScratch []byte
	slots      []getSlot
	futs       []*icilk.Future
}

var connStatePool = sync.Pool{New: func() any { return new(connState) }}

// resetSlots prepares n reusable slots, preserving each slot's buf
// capacity (a plain append of fresh structs would drop them).
func (cs *connState) resetSlots() { cs.slots = cs.slots[:0] }

// addSlot appends a slot for key, reusing the slot struct (and its
// buf capacity) when one is available.
func (cs *connState) addSlot(key []byte) {
	n := len(cs.slots)
	if n < cap(cs.slots) {
		cs.slots = cs.slots[:n+1]
		s := &cs.slots[n]
		s.key = key
		s.buf = s.buf[:0]
		s.owner = -1
		return
	}
	cs.slots = append(cs.slots, getSlot{key: key, owner: -1})
}

// writeBufferer is the optional write-coalescing surface a connection
// may expose (mirrors the single-runtime server).
type writeBufferer interface{ BufferWrites() }

// Serve accepts connections until the listener closes, submitting one
// connection routine per accept. It blocks; run it on a goroutine.
func (c *Cluster) Serve(ln *netsim.Listener) {
	for {
		ep, err := ln.Accept()
		if err != nil {
			return
		}
		c.HandleConn(ep)
	}
}

// HandleConn assigns ep to a receiving shard (round-robin over shards
// still in the ring) and submits its connection routine, returning
// the routine's future. Real-network frontends call this directly
// with adapted TCP connections.
func (c *Cluster) HandleConn(ep memcached.Conn) *icilk.Future {
	recv := c.pickRecv()
	c.conns.Add(1)
	return recv.rt.Submit(c.cfg.RequestLevel, func(t *icilk.Task) any {
		defer c.conns.Add(-1)
		c.handleConn(t, recv, ep)
		return nil
	})
}

// HandleConnOn pins ep to shard id as its receiving shard — the
// surface a shard-aware ("smart") client uses to land each connection
// on the shard that owns the keys it will ask for, turning most
// single-key routing into local execution. Out-of-range ids fall back
// to round-robin assignment.
func (c *Cluster) HandleConnOn(id int, ep memcached.Conn) *icilk.Future {
	if id < 0 || id >= len(c.shards) {
		return c.HandleConn(ep)
	}
	recv := c.shards[id]
	c.conns.Add(1)
	return recv.rt.Submit(c.cfg.RequestLevel, func(t *icilk.Task) any {
		defer c.conns.Add(-1)
		c.handleConn(t, recv, ep)
		return nil
	})
}

// pickRecv chooses the receiving shard for a new connection: round-
// robin over the shards currently in the ring (a draining shard keeps
// its existing connections but takes no new ones).
func (c *Cluster) pickRecv() *Shard {
	n := c.connSeq.Add(1)
	live := c.ring.Load().Shards()
	if len(live) == 0 {
		return c.shards[0]
	}
	return c.shards[live[int(n%uint64(len(live)))]]
}

// handleConn is the per-connection request loop. Same shape as the
// single-runtime server's — LineReader over I/O futures, in-place
// parse, per-connection reply scratch, batch-limited yields — with
// routing added between parse and execute.
func (c *Cluster) handleConn(t *icilk.Task, recv *Shard, ep memcached.Conn) {
	defer ep.Close()
	if b, ok := ep.(writeBufferer); ok {
		b.BufferWrites()
	}
	lr := recv.rt.NewLineReader(ep)
	first, err := lr.PeekByte(t)
	if err != nil {
		return
	}
	if first == 0x80 {
		// The binary protocol has no cluster fast path; a sharded
		// deployment fronts text-protocol clients (run -shards=1 for
		// binary). Dropping the connection is how memcached treats
		// lost framing.
		c.mBinReject.Inc()
		return
	}
	cs := connStatePool.Get().(*connState)
	defer connStatePool.Put(cs)
	adm := recv.rt.Admission()
	sinceYield := 0
	for {
		line, err := lr.ReadLineBytes(t)
		if err != nil {
			if errors.Is(err, icilk.ErrLineTooLong) {
				ep.Write(memcached.ReplyLineTooLong)
			}
			return // EOF: client disconnected
		}
		arrival := time.Now()
		// Multi-get fast path: tokenize the key list with the no-alloc
		// view iterator and fan out, without materializing a RequestB.
		it := wire.IterFields(line)
		cmd, ok := it.Next()
		if !ok {
			continue // blank line, as the parser's opSkip
		}
		handled := false
		if string(cmd) == "get" || string(cmd) == "gets" {
			handled = c.serveGet(t, cs, recv, ep, &it, len(cmd) == 4, arrival, adm)
			// Zero keys: fall through to ParseCommandB for the
			// canonical "get requires a key" error reply.
		}
		if !handled {
			quit, disconnected := c.serveCommand(t, cs, recv, ep, lr, line, arrival, adm)
			if disconnected {
				return
			}
			if quit {
				return
			}
		}
		sinceYield++
		if sinceYield >= c.cfg.BatchLimit && lr.Buffered() {
			sinceYield = 0
			ep.Flush()
			t.Yield()
		}
	}
}

// serveCommand handles everything but the multi-get fast path: parse,
// read any data block, gate admission, route, reply.
func (c *Cluster) serveCommand(t *icilk.Task, cs *connState, recv *Shard, ep memcached.Conn, lr *icilk.LineReader, line []byte, arrival time.Time, adm *icilk.AdmissionController) (quit, disconnected bool) {
	needData, perr := memcached.ParseCommandB(line, &cs.req)
	if perr != nil {
		ep.Write(perr)
		return false, memcached.ClosesConn(perr)
	}
	if needData >= 0 {
		// The key is a view into the command line; reading the data
		// block may compact the buffer under it.
		cs.keyScratch = append(cs.keyScratch[:0], cs.req.Key...)
		cs.req.Key = cs.keyScratch
		raw, err := lr.ReadExactBytes(t, needData+2)
		if err != nil {
			return false, true
		}
		if bad := cs.req.SetData(raw); bad != nil {
			ep.Write(bad)
			return false, false
		}
	}
	var tk icilk.AdmissionTicket
	if adm != nil {
		var aerr error
		if tk, aerr = adm.AcquireClassSince(c.cfg.RequestLevel, cs.req.AdmissionClass(), arrival); aerr != nil {
			c.mShed.Inc()
			ep.Write(memcached.ReplyOutOfCapacity)
			return false, false
		}
	}
	t0 := time.Now()
	quit = c.executeRouted(t, cs, recv)
	if len(cs.reply) > 0 {
		ep.Write(cs.reply)
	}
	d := time.Since(t0)
	if adm != nil {
		adm.Release(tk, c.cfg.RequestTimeout > 0 && d > c.cfg.RequestTimeout)
	}
	c.lat.Observe(d)
	return quit, false
}

// executeRouted runs the parsed command on the shard that owns it,
// leaving the reply in cs.reply.
func (c *Cluster) executeRouted(t *icilk.Task, cs *connState, recv *Shard) (quit bool) {
	req := &cs.req
	key := req.RouteKey()
	if key == nil {
		// Keyless commands run on the receiving shard (stats and
		// friends are per-shard views); flush_all is the one keyless
		// mutation and broadcasts.
		if req.IsFlushAll() {
			for _, s := range c.shards {
				if s.id != recv.id {
					s.store.FlushAll()
				}
			}
		}
		cs.reply, quit = memcached.ExecuteAppend(recv.store, req, cs.reply[:0])
		return quit
	}
	ring := c.enterRing()
	defer exitRing(ring)
	if invariant.Enabled {
		perturb.At(perturb.RouteSelect)
	}
	// Every RouteKey command mutates (GETs take the serveGet path), so
	// a promoted key means write-all.
	if c.promotedHas(key) {
		c.writeAll(t, cs, recv, ring, key)
		c.mWriteAll.Inc()
		return false
	}
	owner := ring.Owner(key)
	if owner < 0 || owner == recv.id {
		c.mLocal.Inc()
		cs.reply, quit = memcached.ExecuteAppend(recv.store, req, cs.reply[:0])
		return quit
	}
	c.mRemote.Inc()
	c.applyOnShard(t, cs, recv, c.shards[owner])
	return false
}

// applyOnShard executes cs.req on target's runtime and joins the
// result: the receiving task suspends on an I/O future that the owner
// runtime's routine completes — the synchronous-interface bridge that
// keeps the handler straight-line while the hop overlaps with other
// work on both runtimes. cs.req's field views stay valid throughout
// because the receiving task (the only reader of this connection) is
// suspended until the hop completes.
func (c *Cluster) applyOnShard(t *icilk.Task, cs *connState, recv, target *Shard) {
	iof := recv.rt.NewIOFuture()
	target.rt.Submit(c.cfg.RequestLevel, func(*icilk.Task) any {
		cs.reply, _ = memcached.ExecuteAppend(target.store, &cs.req, cs.reply[:0])
		recv.rt.CompleteIO(iof, nil)
		return nil
	})
	iof.Get(t)
}

// replicaScratch pools the throwaway reply buffers write-all replica
// applies encode into.
var replicaScratch = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// writeAll applies a promoted-key mutation everywhere: the owner
// first (its reply is the client's reply), then every other shard in
// parallel via FutCreate subtasks, each hopping to its shard's
// runtime. The join completes before replying so a subsequent read on
// any shard sees the write (read-your-writes across the replica set).
func (c *Cluster) writeAll(t *icilk.Task, cs *connState, recv *Shard, ring *Ring, key []byte) {
	owner := ring.Owner(key)
	if owner < 0 {
		owner = recv.id
	}
	if owner == recv.id {
		cs.reply, _ = memcached.ExecuteAppend(recv.store, &cs.req, cs.reply[:0])
	} else {
		c.applyOnShard(t, cs, recv, c.shards[owner])
	}
	cs.futs = cs.futs[:0]
	for _, s := range c.shards {
		if s.id == owner {
			continue
		}
		s := s
		cs.futs = append(cs.futs, t.FutCreate(c.cfg.RequestLevel, func(st *icilk.Task) any {
			if invariant.Enabled {
				perturb.At(perturb.RouteSelect)
			}
			scratch := replicaScratch.Get().(*[]byte)
			if s.id == recv.id {
				*scratch, _ = memcached.ExecuteAppend(s.store, &cs.req, (*scratch)[:0])
			} else {
				iof := recv.rt.NewIOFuture()
				s.rt.Submit(c.cfg.RequestLevel, func(*icilk.Task) any {
					*scratch, _ = memcached.ExecuteAppend(s.store, &cs.req, (*scratch)[:0])
					recv.rt.CompleteIO(iof, nil)
					return nil
				})
				iof.Get(st)
			}
			replicaScratch.Put(scratch)
			return nil
		}))
	}
	for _, f := range cs.futs {
		f.Get(t)
	}
}

// serveGet is the GET path: tokenize keys from the iterator, route
// each to its owner (or the local replica for promoted keys), fan out
// per-shard subtasks, and assemble the reply in request key order.
// Returns false (unhandled) when the line has no keys, so the caller
// can produce the canonical parser error.
func (c *Cluster) serveGet(t *icilk.Task, cs *connState, recv *Shard, ep memcached.Conn, it *wire.FieldIter, withCAS bool, arrival time.Time, adm *icilk.AdmissionController) bool {
	cs.resetSlots()
	for {
		k, ok := it.Next()
		if !ok {
			break
		}
		cs.addSlot(k)
	}
	if len(cs.slots) == 0 {
		return false
	}
	var tk icilk.AdmissionTicket
	if adm != nil {
		var aerr error
		if tk, aerr = adm.AcquireClassSince(c.cfg.RequestLevel, memcached.MultiGetClass(), arrival); aerr != nil {
			c.mShed.Inc()
			ep.Write(memcached.ReplyOutOfCapacity)
			return true
		}
	}
	t0 := time.Now()
	ring := c.enterRing()
	if invariant.Enabled {
		perturb.At(perturb.RouteSelect)
	}
	// Route every key: promoted keys read-any from the receiving
	// shard's replica, the rest from their ring owner.
	var mask uint64
	for i := range cs.slots {
		s := &cs.slots[i]
		c.observeGet(s.key)
		if c.promotedHas(s.key) {
			s.owner = int32(recv.id)
			c.mHotReads.Inc()
		} else {
			s.owner = int32(ring.Owner(s.key))
			if s.owner < 0 {
				s.owner = int32(recv.id)
			}
		}
		mask |= 1 << uint(s.owner)
	}
	recvBit := uint64(1) << uint(recv.id)
	remote := mask &^ recvBit
	switch {
	case remote == 0:
		// All keys local: no fan-out at all.
		c.mLocal.Inc()
		fillSlots(c, recv.id, cs.slots, withCAS)
	case remote&(remote-1) == 0 && mask&recvBit == 0:
		// Exactly one shard, and it is remote: a single hop with no
		// subtask — the parent itself bridges (the dominant shape for
		// single-key GETs).
		c.mRemote.Inc()
		sid := bits.TrailingZeros64(remote)
		iof := recv.rt.NewIOFuture()
		target := c.shards[sid]
		target.rt.Submit(c.cfg.RequestLevel, func(*icilk.Task) any {
			fillSlots(c, sid, cs.slots, withCAS)
			recv.rt.CompleteIO(iof, nil)
			return nil
		})
		iof.Get(t)
	default:
		// True fan-out: one subtask per remote owner shard, spawned on
		// the receiving runtime and joined by futures; the local batch
		// runs on the parent in parallel with the hops.
		c.mFanout.Inc()
		cs.futs = cs.futs[:0]
		for rem := remote; rem != 0; rem &= rem - 1 {
			sid := bits.TrailingZeros64(rem)
			c.mSubtasks.Inc()
			cs.futs = append(cs.futs, t.FutCreate(c.cfg.RequestLevel, func(st *icilk.Task) any {
				if invariant.Enabled {
					perturb.At(perturb.RouteSelect)
				}
				iof := recv.rt.NewIOFuture()
				target := c.shards[sid]
				target.rt.Submit(c.cfg.RequestLevel, func(*icilk.Task) any {
					fillSlots(c, sid, cs.slots, withCAS)
					recv.rt.CompleteIO(iof, nil)
					return nil
				})
				iof.Get(st)
				return nil
			}))
		}
		if mask&recvBit != 0 {
			fillSlots(c, recv.id, cs.slots, withCAS)
		}
		for _, f := range cs.futs {
			f.Get(t)
		}
	}
	exitRing(ring)
	// Assemble in original request key order from the per-slot VALUE
	// blocks, byte-identical to the single-runtime reply.
	cs.reply = cs.reply[:0]
	for i := range cs.slots {
		cs.reply = append(cs.reply, cs.slots[i].buf...)
	}
	cs.reply = memcached.AppendGetEnd(cs.reply)
	ep.Write(cs.reply)
	d := time.Since(t0)
	if adm != nil {
		adm.Release(tk, c.cfg.RequestTimeout > 0 && d > c.cfg.RequestTimeout)
	}
	c.lat.Observe(d)
	return true
}

// fillSlots looks up every slot owned by shard sid and encodes its
// VALUE block into the slot's scratch. Each slot is touched by
// exactly one shard's fill, so concurrent fills over one slot array
// are race-free; the parent reads the slots only after joining. Key
// views stay valid because the connection's task is suspended (no
// reads compact the buffer) until every fill has joined; values are
// rendered under the store's shard lock, so no view of one exists here.
func fillSlots(c *Cluster, sid int, slots []getSlot, withCAS bool) {
	for i := range slots {
		s := &slots[i]
		if int(s.owner) == sid {
			s.buf = c.appendWithFallback(s.buf[:0], sid, s.key, withCAS)
		}
	}
}
