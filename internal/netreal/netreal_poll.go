package netreal

import (
	"syscall"
	"time"

	"icilk/internal/netpoll"
)

// This file is the poller-mode half of Conn: instead of a blocking
// per-connection pump goroutine, a shared netpoll poller calls
// PollReadable/PollWritable when the kernel reports readiness, and
// the connection moves bytes with raw nonblocking syscalls on its
// own fd. Lock order: c.mu may nest netpoll Desc/poller locks (the
// poller never calls into the connection while holding its own
// locks), and c.mu may nest c.wmu; never the reverse.

// closeDrainTimeout bounds the final blocking drain Close gives to
// reply bytes parked behind a full kernel send buffer.
const closeDrainTimeout = time.Second

// startPoll registers the connection with the poller group. rawfd
// and batcher are published before Add so a hangup event arriving
// before read interest is enabled still routes safely.
func (c *Conn) startPoll(g *netpoll.Group, sc syscall.Conn, b netpoll.Batcher) bool {
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	fd := -1
	if err := rc.Control(func(f uintptr) { fd = int(f) }); err != nil || fd < 0 {
		return false
	}
	c.rawfd = fd
	c.batcher = b
	d, err := g.Add(fd, c)
	if err != nil {
		c.rawfd = -1
		c.batcher = nil
		return false
	}
	c.mu.Lock()
	c.pd = d
	c.mu.Unlock()
	d.SetReadInterest(true)
	return true
}

// PollerActive reports whether this connection is served by a shared
// poller (false: per-connection pump).
func (c *Conn) PollerActive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pd != nil
}

// CompletesOnPoller reports that readiness callbacks armed on this
// connection run on the shared poller through the batcher (the
// runtime, which drops them once it is closed), so the icilk read
// path may complete futures directly inside them instead of handing
// them to the I/O pool.
func (c *Conn) CompletesOnPoller() bool { return c.pd != nil && c.batcher != nil }

// PollReadable implements netpoll.Conn: drain the socket into the
// recycled chunk ring, returning the armed readiness callback (if any)
// for the poller to run with the rest of its pass.
func (c *Conn) PollReadable(d *netpoll.Desc, forced bool) (func(), netpoll.Batcher) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if forced {
			d.Close() // hangup events cannot be masked; deregister
		}
		return nil, nil
	}
	if c.rerr != nil {
		c.mu.Unlock()
		if forced && !c.wparked.Load() {
			d.Close()
		}
		return nil, nil
	}
	if c.paused && !forced {
		c.mu.Unlock()
		return nil, nil
	}
	c.pollDrainLocked(d, forced)
	var fn func()
	if (c.buffered > 0 || c.rerr != nil) && c.notify != nil {
		fn = c.notify
		c.notify = nil
	}
	c.cond.Broadcast()
	c.syncAcct()
	c.mu.Unlock()
	return fn, c.batcher
}

// pollDrainLocked reads until the socket would block, a short read
// suggests it is empty, the soft cap engages backpressure, or a
// terminal error lands in rerr. Called with c.mu held. d is nil when
// the descriptor is already deregistered (detached consumer-driven
// drain after a hangup outran the soft cap).
func (c *Conn) pollDrainLocked(d *netpoll.Desc, forced bool) {
	for {
		cur := c.tail
		var fresh *chunk
		if cur == nil || cur.w == chunkSize {
			// Read into a detached chunk and only link it if bytes
			// land, so an idle connection retains no 16 KiB chunk.
			fresh = c.stats.getChunk()
			cur = fresh
		}
		space := cur.data[cur.w:]
		n, err := netpoll.ReadFD(c.rawfd, space)
		c.stats.sysReads.Add(1)
		if n > 0 {
			if fresh != nil {
				if c.tail == nil {
					c.head = fresh
				} else {
					c.tail.next = fresh
				}
				c.tail = fresh
			}
			cur.w += n
			c.buffered += n
			c.stats.readBytes.Add(int64(n))
		} else if fresh != nil {
			c.stats.putChunk(fresh)
		}
		if err != nil {
			if err == netpoll.ErrWouldBlock {
				return
			}
			c.rerr = err
			// Deregistration handshake with the write side: exactly
			// one of {this store, PollWritable's wparked clear}
			// observes the other, so someone closes the Desc.
			c.rdead.Store(true)
			if d != nil {
				if !c.wparked.Load() {
					d.Close()
				} else {
					d.SetReadInterest(false)
				}
			}
			return
		}
		if c.buffered > bufferSoftCap {
			if !c.paused {
				c.paused = true
				c.stats.pauses.Add(1)
			}
			if d == nil {
				return // detached: consumer re-drains as it consumes
			}
			if forced && !c.wparked.Load() {
				// A hangup event cannot be masked, so dropping read
				// interest would spin the poller. Deregister and let
				// TryRead drive the remaining drain to EOF.
				c.detached = true
				d.Close()
				return
			}
			d.SetReadInterest(false)
			return
		}
		if n < len(space) {
			return // short read: almost surely drained; skip the EAGAIN probe
		}
	}
}

// resumeReadsLocked re-engages reading after backpressure drains
// below the soft cap. Called with c.mu held from TryRead.
func (c *Conn) resumeReadsLocked() {
	c.paused = false
	if c.closed || c.rerr != nil || c.pd == nil {
		return
	}
	if c.detached {
		// The descriptor is gone; pull whatever remains inline.
		c.pollDrainLocked(nil, true)
		return
	}
	c.pd.SetReadInterest(true)
}

// PollWritable implements netpoll.Conn: drain parked write bytes now
// that the kernel buffer has room.
func (c *Conn) PollWritable(d *netpoll.Desc) {
	c.wmu.Lock()
	if c.dead {
		c.wmu.Unlock()
		return
	}
	if len(c.wpend) == 0 {
		// Spurious (forced hangup with nothing parked).
		d.SetWriteInterest(false)
		c.wmu.Unlock()
		return
	}
	p := c.wpend
	for len(p) > 0 {
		n, err := netpoll.WriteFD(c.rawfd, p)
		c.stats.sysWrites.Add(1)
		p = p[n:]
		if err == netpoll.ErrWouldBlock {
			c.wpend = c.wpend[:copy(c.wpend, p)]
			c.wmu.Unlock()
			return
		}
		if err != nil {
			c.werr = err
			p = nil
		}
	}
	c.wpend = c.wpend[:0]
	// Clearing interest under wmu serializes against a concurrent
	// Flush that parks fresh bytes and re-arms.
	d.SetWriteInterest(false)
	c.wparked.Store(false)
	closeDesc := c.rdead.Load() || c.werr != nil
	c.wmu.Unlock()
	if closeDesc {
		d.Close()
	}
}

// flushPollLocked sends wbuf (plus an optional large payload,
// vectored so it is never copied) with nonblocking syscalls, parking
// whatever the kernel will not take and arming EPOLLOUT — the
// handler worker never blocks on a full send buffer. Called with
// c.wmu held; wbuf is consumed.
func (c *Conn) flushPollLocked(payload []byte) error {
	if c.dead {
		c.wbuf = c.wbuf[:0]
		return c.werr
	}
	if len(c.wpend) > 0 {
		// An EPOLLOUT drain is in flight; preserve order by parking
		// behind it.
		c.wpend = append(c.wpend, c.wbuf...)
		c.wpend = append(c.wpend, payload...)
		c.wbuf = c.wbuf[:0]
		return nil
	}
	a, b := c.wbuf, payload
	for len(a)+len(b) > 0 {
		var n int
		var err error
		switch {
		case len(a) == 0:
			n, err = netpoll.WriteFD(c.rawfd, b)
		case len(b) == 0:
			n, err = netpoll.WriteFD(c.rawfd, a)
		default:
			n, err = netpoll.WritevFD(c.rawfd, a, b)
		}
		c.stats.sysWrites.Add(1)
		if n >= len(a) {
			b = b[n-len(a):]
			a = nil
		} else {
			a = a[n:]
		}
		if err == netpoll.ErrWouldBlock {
			c.wpend = append(c.wpend[:0], a...)
			c.wpend = append(c.wpend, b...)
			c.wbuf = c.wbuf[:0]
			c.wparked.Store(true)
			if serr := c.pd.SetWriteInterest(true); serr != nil {
				// Descriptor already deregistered (read side died
				// mid-park): fall back to one bounded blocking drain
				// rather than stranding the bytes.
				return c.blockingDrainLocked()
			}
			return nil
		}
		if err != nil {
			c.werr = err
			c.wbuf = c.wbuf[:0]
			return err
		}
	}
	c.wbuf = c.wbuf[:0]
	return nil
}

// blockingDrainLocked writes parked bytes through the net.Conn with
// a bounded deadline. Called with c.wmu held, only on fallback paths
// where the poller can no longer deliver EPOLLOUT.
func (c *Conn) blockingDrainLocked() error {
	p := c.wpend
	c.wpend = nil
	c.wparked.Store(false)
	var err error
	if len(p) > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(closeDrainTimeout))
		c.stats.sysWrites.Add(1)
		_, err = c.nc.Write(p)
		c.nc.SetWriteDeadline(time.Time{})
		if err != nil {
			c.werr = err
		}
	}
	return err
}

// closePoll tears down the poller-mode write side: marks the
// connection dead (no further raw-fd traffic), deregisters the
// descriptor BEFORE the socket closes (so no epoll_ctl can target a
// reused fd number), and gives parked reply bytes one bounded
// blocking drain.
func (c *Conn) closePoll() {
	c.wmu.Lock()
	alreadyDead := c.dead
	c.dead = true
	pend := c.wpend
	c.wpend = nil
	c.wparked.Store(false)
	werr := c.werr
	c.wmu.Unlock()
	if alreadyDead {
		return
	}
	// The socket closes right after this returns, so the kernel drops
	// the epoll registration itself — skip the explicit DEL.
	c.pd.CloseWithFD()
	if len(pend) > 0 && werr == nil {
		c.nc.SetWriteDeadline(time.Now().Add(closeDrainTimeout))
		c.stats.sysWrites.Add(1)
		c.nc.Write(pend)
		c.nc.SetWriteDeadline(time.Time{})
	}
}
