//go:build linux && !icilk_nopoll

package netpoll

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
)

// Supported reports whether shared pollers are available in this
// build. When false (non-Linux, or the icilk_nopoll tag), Open
// returns an error and callers use the per-connection pump fallback.
const Supported = true

// harvestSize is the epoll_wait event batch: large enough that a
// saturated poller amortizes one kernel crossing over many ready
// sockets, small enough to live on the poller's stack maps cheaply.
const harvestSize = 256

// Group is a set of poller shards. Connections are assigned
// round-robin at Add time and stay on their shard for life.
type Group struct {
	pollers []*poller
	next    atomic.Uint64
	closed  atomic.Bool
}

// Open starts shards poller goroutines (at least 1).
func Open(shards int) (*Group, error) {
	if shards < 1 {
		shards = 1
	}
	g := &Group{pollers: make([]*poller, 0, shards)}
	for i := 0; i < shards; i++ {
		p, err := newPoller()
		if err != nil {
			g.Close()
			return nil, err
		}
		g.pollers = append(g.pollers, p)
		go p.run()
	}
	return g, nil
}

// Shards returns the number of poller goroutines.
func (g *Group) Shards() int { return len(g.pollers) }

// Add assigns fd (which must already be nonblocking; fds from
// net.Conn are) to a shard and installs it in the shard's routing
// table, without touching epoll yet: the EPOLL_CTL_ADD happens on the
// first interest change, carrying the initial mask — one syscall
// instead of an empty-mask ADD plus a MOD. The caller publishes the
// returned Desc into its connection state before arming, so no event
// can arrive before the connection can route it.
func (g *Group) Add(fd int, c Conn) (*Desc, error) {
	if g.closed.Load() {
		return nil, ErrClosed
	}
	p := g.pollers[g.next.Add(1)%uint64(len(g.pollers))]
	return p.add(fd, c)
}

// Close shuts every poller down. Descs still registered are
// abandoned (their fds are simply deregistered by the epoll fd
// closing); connections must be closed separately.
func (g *Group) Close() error {
	if g.closed.Swap(true) {
		return ErrClosed
	}
	for _, p := range g.pollers {
		p.shutdown()
	}
	return nil
}

// poller is one epoll instance plus its harvest goroutine.
type poller struct {
	epfd  int
	wakeR int // shutdown pipe read end, registered EPOLLIN
	wakeW int

	mu     sync.Mutex
	conns  map[int]*Desc
	closed bool
}

func newPoller() (*poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var pf [2]int
	if err := syscall.Pipe2(pf[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	p := &poller{epfd: epfd, wakeR: pf[0], wakeW: pf[1], conns: make(map[int]*Desc)}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(p.wakeR)}
	PollStats.epollCtls.Add(1)
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(pf[0])
		syscall.Close(pf[1])
		return nil, err
	}
	return p, nil
}

func (p *poller) add(fd int, c Conn) (*Desc, error) {
	d := &Desc{p: p, fd: fd, conn: c}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.conns[fd] = d
	p.mu.Unlock()
	return d, nil
}

func (p *poller) shutdown() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	var one [1]byte
	syscall.Write(p.wakeW, one[:]) // run() observes closed and exits
}

// batchGroup accumulates one pass's completions per Batcher. The
// common case is a single Batcher for every connection (the
// runtime), so groups is scanned linearly. Between passes a
// group keeps only its fns capacity: b is nil, so a poller that
// outlives a runtime does not pin that runtime's Batcher, and the
// next pass's first Batcher claims the slot without allocating.
type batchGroup struct {
	b   Batcher
	fns []func()
}

// run is the poller loop: harvest up to harvestSize events per
// epoll_wait, drain every ready connection, then complete all the
// pass's futures in one batch per Batcher, on this goroutine.
func (p *poller) run() {
	var events [harvestSize]syscall.EpollEvent
	var descs [harvestSize]*Desc
	var groups []batchGroup
	for {
		PollStats.epollWaits.Add(1)
		n, err := syscall.EpollWait(p.epfd, events[:], -1)
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			p.teardown()
			return
		}
		PollStats.events.Add(int64(n))

		// Map fds to descriptors under the table lock, then run the
		// connection callbacks without it (callbacks may Close their
		// own Desc, which re-enters p.mu).
		stop := false
		p.mu.Lock()
		if p.closed {
			stop = true
		}
		for i := 0; i < n; i++ {
			fd := int(events[i].Fd)
			if fd == p.wakeR {
				descs[i] = nil
				continue
			}
			descs[i] = p.conns[fd] // nil if closed since harvest: skip
		}
		p.mu.Unlock()
		if stop {
			p.teardown()
			return
		}
		if invariant.Enabled {
			perturb.At(perturb.NetDeliver)
		}

		for i := 0; i < n; i++ {
			d := descs[i]
			if d == nil {
				continue
			}
			descs[i] = nil
			evs := events[i].Events
			forced := evs&(syscall.EPOLLHUP|syscall.EPOLLERR) != 0
			if evs&syscall.EPOLLIN != 0 || forced {
				fn, b := d.conn.PollReadable(d, forced)
				groups = appendCompletion(groups, fn, b)
			}
			if evs&syscall.EPOLLOUT != 0 || forced {
				d.conn.PollWritable(d)
			}
		}

		delivered := false
		for gi := range groups {
			g := &groups[gi]
			if g.b == nil {
				break // free slots trail the claimed ones
			}
			PollStats.batches.Add(1)
			PollStats.batchedFns.Add(int64(len(g.fns)))
			g.b.SubmitBatch(g.fns) // the slice is ours again on return
			clear(g.fns)
			g.fns = g.fns[:0]
			g.b = nil
			delivered = true
		}
		if delivered {
			// The wake a completion issued put a worker in this P's
			// runnext slot, and a raw EpollWait keeps the P in syscall
			// state: the worker would wait for sysmon to retake the P
			// (>= 20 µs). Traced mc_tcp, 2 vCPUs: sched.io_resume_us
			// 26.3 µs and sat_ops_s 3.2e5 without this yield, 8.6 µs
			// and 5.0e5 with it (EXPERIMENTS.md).
			runtime.Gosched()
		}
	}
}

func appendCompletion(groups []batchGroup, fn func(), b Batcher) []batchGroup {
	if fn == nil {
		return groups
	}
	if b == nil {
		fn() // inline delivery for unbatched connections (tests)
		return groups
	}
	for i := range groups {
		g := &groups[i]
		if g.b == nil {
			g.b = b // first completion for b this pass: claim a free slot
		}
		if g.b == b {
			g.fns = append(g.fns, fn)
			return groups
		}
	}
	return append(groups, batchGroup{b: b, fns: append(make([]func(), 0, harvestSize), fn)})
}

func (p *poller) teardown() {
	p.mu.Lock()
	p.closed = true
	for fd, d := range p.conns {
		d.mu.Lock()
		d.closed = true
		d.mu.Unlock()
		delete(p.conns, fd)
	}
	p.mu.Unlock()
	syscall.Close(p.epfd)
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
}

// Desc is one registered fd. All epoll_ctl traffic for the fd is
// serialized under d.mu with a closed check, so interest toggles
// cannot race deregistration (and, because the owner deregisters
// before closing the socket, cannot target a reused fd number).
type Desc struct {
	p    *poller
	fd   int
	conn Conn

	mu     sync.Mutex
	events uint32
	added  bool // EPOLL_CTL_ADD issued (lazy: first interest change)
	closed bool
}

// SetReadInterest enables or disables EPOLLIN delivery.
func (d *Desc) SetReadInterest(on bool) error {
	return d.mod(syscall.EPOLLIN, on)
}

// SetWriteInterest enables or disables EPOLLOUT delivery.
func (d *Desc) SetWriteInterest(on bool) error {
	return d.mod(syscall.EPOLLOUT, on)
}

func (d *Desc) mod(bit uint32, on bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	want := d.events
	if on {
		want |= bit
	} else {
		want &^= bit
	}
	if want == d.events && d.added {
		return nil
	}
	op := syscall.EPOLL_CTL_MOD
	if !d.added {
		op = syscall.EPOLL_CTL_ADD // lazy registration, initial mask included
	}
	ev := syscall.EpollEvent{Events: want, Fd: int32(d.fd)}
	PollStats.epollCtls.Add(1)
	if err := syscall.EpollCtl(d.p.epfd, op, d.fd, &ev); err != nil {
		return err
	}
	d.added = true
	d.events = want
	return nil
}

// Close deregisters the fd. Idempotent. The owner must call Close
// BEFORE closing the underlying socket: deregistering first is what
// guarantees no epoll_ctl ever targets a reused fd number.
func (d *Desc) Close() error { return d.close(true) }

// CloseWithFD deregisters like Close but skips the explicit
// EPOLL_CTL_DEL: valid ONLY when the caller closes the socket
// immediately afterwards — the kernel drops the epoll registration
// with the last reference to the open file, saving one syscall per
// connection. On any path where the fd stays open (read-terminal
// deregistration, hangup detach), use Close: a leaked level-triggered
// registration would spin the poller.
func (d *Desc) CloseWithFD() error { return d.close(false) }

func (d *Desc) close(delCtl bool) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	added := d.added
	d.mu.Unlock()

	d.p.mu.Lock()
	if cur, ok := d.p.conns[d.fd]; ok && cur == d {
		delete(d.p.conns, d.fd)
	}
	pollerClosed := d.p.closed
	d.p.mu.Unlock()
	if pollerClosed || !added || !delCtl {
		return nil
	}
	PollStats.epollCtls.Add(1)
	return syscall.EpollCtl(d.p.epfd, syscall.EPOLL_CTL_DEL, d.fd, nil)
}

// ReadFD reads into p, mapping EAGAIN to ErrWouldBlock and a
// zero-byte read to io.EOF. EINTR is retried.
func ReadFD(fd int, p []byte) (int, error) {
	for {
		n, err := syscall.Read(fd, p)
		switch err {
		case nil:
			if n == 0 && len(p) > 0 {
				return 0, io.EOF
			}
			return n, nil
		case syscall.EAGAIN:
			return 0, ErrWouldBlock
		case syscall.EINTR:
			continue
		default:
			return 0, err
		}
	}
}

// WriteFD issues ONE write syscall (EINTR retried), mapping EAGAIN
// to ErrWouldBlock. n reports bytes the kernel accepted; callers
// loop (counting each syscall) until done or would-block.
func WriteFD(fd int, p []byte) (int, error) {
	for {
		n, err := syscall.Write(fd, p)
		switch err {
		case nil:
			if n < 0 {
				n = 0
			}
			return n, nil
		case syscall.EAGAIN:
			return 0, ErrWouldBlock
		case syscall.EINTR:
			continue
		default:
			return 0, err
		}
	}
}

// WritevFD issues ONE writev syscall over the two spans (either may
// be empty), with the same EAGAIN/EINTR mapping as WriteFD. Vectored
// submission keeps the large-payload reply path zero-copy in poller
// mode: pending coalesced bytes and the payload go down together.
func WritevFD(fd int, a, b []byte) (int, error) {
	var iov [2]syscall.Iovec
	n := 0
	if len(a) > 0 {
		iov[n].Base = &a[0]
		iov[n].SetLen(len(a))
		n++
	}
	if len(b) > 0 {
		iov[n].Base = &b[0]
		iov[n].SetLen(len(b))
		n++
	}
	if n == 0 {
		return 0, nil
	}
	for {
		r, _, errno := syscall.Syscall(syscall.SYS_WRITEV,
			uintptr(fd), uintptr(unsafe.Pointer(&iov[0])), uintptr(n))
		switch errno {
		case 0:
			return int(r), nil
		case syscall.EAGAIN:
			return 0, ErrWouldBlock
		case syscall.EINTR:
			continue
		default:
			return 0, errno
		}
	}
}
