//go:build linux && !icilk_nopoll

package netpoll

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// testConn is a minimal netpoll.Conn over one end of a socketpair:
// readable events drain one byte at a time and count them; hangups
// record the forced flag.
type testConn struct {
	fd      int
	batcher Batcher

	drained atomic.Int64
	eofs    atomic.Int64
	forced  atomic.Int64
	onByte  func() // called once per drained byte (may be nil)
	onEOF   func() // called once per observed EOF (may be nil)
}

func (c *testConn) PollReadable(d *Desc, forced bool) (func(), Batcher) {
	if forced {
		c.forced.Add(1)
	}
	var buf [64]byte
	for {
		n, err := ReadFD(c.fd, buf[:])
		if n > 0 {
			for i := 0; i < n; i++ {
				c.drained.Add(1)
				if c.onByte != nil {
					c.onByte()
				}
			}
			continue
		}
		if err == ErrWouldBlock {
			return nil, nil
		}
		// EOF or a terminal error: deregister so the level-triggered
		// hangup cannot spin the poller.
		if err == io.EOF {
			if c.eofs.Add(1) == 1 && c.onEOF != nil {
				d.Close()
				fn := c.onEOF
				return fn, c.batcher
			}
		}
		d.Close()
		return nil, nil
	}
}

func (c *testConn) PollWritable(d *Desc) {}

// pair returns a nonblocking socketpair (read end, write end).
func pair(t *testing.T) (int, int) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatalf("socketpair: %v", err)
	}
	if err := syscall.SetNonblock(fds[0], true); err != nil {
		t.Fatalf("setnonblock: %v", err)
	}
	return fds[0], fds[1]
}

// TestPollerDeliversReadable is the basic plumbing check: bytes
// written to the peer arrive as drain callbacks.
func TestPollerDeliversReadable(t *testing.T) {
	g, err := Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rfd, wfd := pair(t)
	defer syscall.Close(wfd)

	got := make(chan struct{}, 16)
	c := &testConn{fd: rfd, onByte: func() { got <- struct{}{} }}
	d, err := g.Add(rfd, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetReadInterest(true); err != nil {
		t.Fatal(err)
	}
	if _, err := syscall.Write(wfd, []byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("readable byte never delivered")
	}
	d.Close()
	syscall.Close(rfd)
}

// TestLazyRegistrationSyscallBudget pins the per-connection epoll_ctl
// cost: registering and arming is ONE ctl (the lazy ADD carries the
// initial mask), and CloseWithFD (the close-the-socket-next path)
// adds none.
func TestLazyRegistrationSyscallBudget(t *testing.T) {
	g, err := Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rfd, wfd := pair(t)
	defer syscall.Close(wfd)

	c := &testConn{fd: rfd}
	ctl0 := PollStats.EpollCtls()
	d, err := g.Add(rfd, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := PollStats.EpollCtls() - ctl0; got != 0 {
		t.Errorf("Add cost %d epoll_ctls, want 0 (lazy)", got)
	}
	if err := d.SetReadInterest(true); err != nil {
		t.Fatal(err)
	}
	if got := PollStats.EpollCtls() - ctl0; got != 1 {
		t.Errorf("Add+arm cost %d epoll_ctls, want 1", got)
	}
	if err := d.SetReadInterest(true); err != nil { // no-op re-arm
		t.Fatal(err)
	}
	if got := PollStats.EpollCtls() - ctl0; got != 1 {
		t.Errorf("redundant arm issued a ctl (total %d)", got)
	}
	d.CloseWithFD()
	syscall.Close(rfd)
	if got := PollStats.EpollCtls() - ctl0; got != 1 {
		t.Errorf("CloseWithFD issued a ctl (total %d, want 1)", got)
	}

	// The explicit-DEL path (fd stays open) costs exactly one more.
	rfd2, wfd2 := pair(t)
	defer syscall.Close(wfd2)
	defer syscall.Close(rfd2)
	c2 := &testConn{fd: rfd2}
	ctl1 := PollStats.EpollCtls()
	d2, err := g.Add(rfd2, c2)
	if err != nil {
		t.Fatal(err)
	}
	d2.SetReadInterest(true)
	d2.Close()
	if got := PollStats.EpollCtls() - ctl1; got != 2 {
		t.Errorf("arm+Close cost %d epoll_ctls, want 2 (ADD + DEL)", got)
	}
}

// TestPollerHangupForced checks the unmaskable-event path: the peer
// closing fires a forced readable that drains to EOF and deregisters.
func TestPollerHangupForced(t *testing.T) {
	g, err := Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rfd, wfd := pair(t)
	defer syscall.Close(rfd)

	eof := make(chan struct{})
	c := &testConn{fd: rfd}
	c.onEOF = func() { close(eof) }
	d, err := g.Add(rfd, c)
	if err != nil {
		t.Fatal(err)
	}
	d.SetReadInterest(true)
	syscall.Write(wfd, []byte{1, 2, 3})
	syscall.Close(wfd)
	select {
	case <-eof:
	case <-time.After(10 * time.Second):
		t.Fatal("hangup never delivered EOF")
	}
	if got := c.drained.Load(); got != 3 {
		t.Errorf("drained %d bytes before EOF, want 3", got)
	}
}

// recordingBatcher collects submitted batches.
type recordingBatcher struct {
	mu      sync.Mutex
	batches int
	fns     int
}

func (b *recordingBatcher) SubmitBatch(fns []func()) {
	b.mu.Lock()
	b.batches++
	b.fns += len(fns)
	b.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// TestPollerBatchesCompletions checks that completions from one
// harvest pass are grouped through the Batcher rather than delivered
// one handoff each.
func TestPollerBatchesCompletions(t *testing.T) {
	g, err := Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const n = 64
	b := &recordingBatcher{}
	var delivered atomic.Int64
	conns := make([]*testConn, n)
	descs := make([]*Desc, n)
	for i := 0; i < n; i++ {
		rfd, wfd := pair(t)
		c := &testConn{fd: rfd, batcher: b}
		c.onEOF = func() { delivered.Add(1) }
		conns[i] = c
		d, err := g.Add(rfd, c)
		if err != nil {
			t.Fatal(err)
		}
		descs[i] = d
		// Make the socket ready BEFORE arming: a byte plus a hangup.
		// Registration is lazy, so no event fires yet.
		syscall.Write(wfd, []byte{9})
		syscall.Close(wfd)
	}
	// Arm everything back-to-back; the data is already pending, so the
	// harvest passes see many ready sockets at once.
	for _, d := range descs {
		d.SetReadInterest(true)
	}
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d completions", delivered.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	b.mu.Lock()
	batches, fns := b.batches, b.fns
	b.mu.Unlock()
	if fns != n {
		t.Errorf("batched fns = %d, want %d", fns, n)
	}
	if batches >= n {
		t.Errorf("batches = %d for %d completions: no coalescing happened", batches, n)
	}
	for i, c := range conns {
		syscall.Close(c.fd)
		_ = i
	}
}

// TestPollerChurn is the fd-reuse stress: waves of connections
// register, exchange a byte, and deregister, so fd numbers recycle
// across Desc lifetimes while the poller dispatches. Run with -race.
// 512 pairs x 4 waves exercises 2048 connection lifetimes.
func TestPollerChurn(t *testing.T) {
	g, err := Open(2)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const perWave = 512
	const waves = 4
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		wg.Add(perWave)
		rfds := make([]int, perWave)
		wfds := make([]int, perWave)
		descs := make([]*Desc, perWave)
		for i := 0; i < perWave; i++ {
			rfd, wfd := pair(t)
			rfds[i], wfds[i] = rfd, wfd
			var once sync.Once
			c := &testConn{fd: rfd}
			c.onByte = func() { once.Do(wg.Done) }
			d, err := g.Add(rfd, c)
			if err != nil {
				t.Fatalf("wave %d conn %d: %v", w, i, err)
			}
			descs[i] = d
			if err := d.SetReadInterest(true); err != nil {
				t.Fatalf("wave %d conn %d arm: %v", w, i, err)
			}
		}
		for i := 0; i < perWave; i++ {
			if _, err := syscall.Write(wfds[i], []byte{byte(i)}); err != nil {
				t.Fatalf("wave %d write %d: %v", w, i, err)
			}
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("wave %d: byte deliveries missing", w)
		}
		for i := 0; i < perWave; i++ {
			descs[i].CloseWithFD()
			syscall.Close(rfds[i])
			syscall.Close(wfds[i])
		}
	}
}

// TestDescCloseIdempotent checks both close flavors tolerate
// repetition and racing each other (the read-terminal/parked-write
// handshake allows both sides to close).
func TestDescCloseIdempotent(t *testing.T) {
	g, err := Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rfd, wfd := pair(t)
	defer syscall.Close(rfd)
	defer syscall.Close(wfd)
	d, err := g.Add(rfd, &testConn{fd: rfd})
	if err != nil {
		t.Fatal(err)
	}
	d.SetReadInterest(true)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				d.Close()
			} else {
				d.CloseWithFD()
			}
		}(i)
	}
	wg.Wait()
	if err := d.SetReadInterest(true); err != ErrClosed {
		t.Errorf("arm after close = %v, want ErrClosed", err)
	}
}

// wakeConn drains its socket and returns the same pre-bound completion
// on every readable event, the way an armed connection hands its
// readiness callback to the poller.
type wakeConn struct {
	fd      int
	batcher Batcher
	fire    func()
	buf     [64]byte // a field: a local escapes under -race
}

func (c *wakeConn) PollReadable(d *Desc, forced bool) (func(), Batcher) {
	for {
		n, err := ReadFD(c.fd, c.buf[:])
		if n > 0 {
			continue
		}
		if err != ErrWouldBlock {
			d.Close()
			return nil, nil
		}
		return c.fire, c.batcher
	}
}

func (c *wakeConn) PollWritable(d *Desc) {}

// inlineBatcher runs each batch on the poller goroutine.
type inlineBatcher struct{ batches atomic.Int64 }

func (b *inlineBatcher) SubmitBatch(fns []func()) {
	b.batches.Add(1)
	for _, fn := range fns {
		fn()
	}
}

// TestHarvestAllocationsDoNotScaleWithWakeups is the poller's
// allocation gate: the per-Batcher completion slice is kept across
// harvest passes, so 10 000 wake-ups on two descriptors sharing one
// Batcher allocate O(1) objects, not one 2 KiB slice per pass.
func TestHarvestAllocationsDoNotScaleWithWakeups(t *testing.T) {
	g, err := Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	b := &inlineBatcher{}
	var fired atomic.Int64
	fire := func() { fired.Add(1) }
	var wfds [2]int
	for i := range wfds {
		rfd, wfd := pair(t)
		defer syscall.Close(rfd)
		defer syscall.Close(wfd)
		wfds[i] = wfd
		d, err := g.Add(rfd, &wakeConn{fd: rfd, batcher: b, fire: fire})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.SetReadInterest(true); err != nil {
			t.Fatal(err)
		}
	}
	one := []byte{1}
	rounds := func(n int) {
		for i := 0; i < n; i++ {
			want := fired.Load() + int64(len(wfds))
			for _, wfd := range wfds {
				if _, err := syscall.Write(wfd, one); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for fired.Load() < want {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: %d of %d wake-ups delivered", i, fired.Load(), want)
				}
				runtime.Gosched()
			}
		}
	}
	rounds(100) // warm: the group's slice and the test's own lazy state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rounds(5000)
	runtime.ReadMemStats(&m1)
	if allocs := m1.Mallocs - m0.Mallocs; allocs > 100 {
		t.Errorf("10000 wake-ups over %d batches allocated %d objects, want O(1)",
			b.batches.Load(), allocs)
	}
}

// TestPollerDoesNotPinBatcher: between passes the poller keeps only a
// group's slice, not its Batcher, so a long-lived shared poller does
// not keep a closed runtime's I/O pool reachable.
func TestPollerDoesNotPinBatcher(t *testing.T) {
	g, err := Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rfd, wfd := pair(t)
	defer syscall.Close(rfd)
	defer syscall.Close(wfd)

	collected := make(chan struct{})
	fired := make(chan struct{}, 1)
	func() {
		b := &inlineBatcher{}
		runtime.SetFinalizer(b, func(*inlineBatcher) { close(collected) })
		d, err := g.Add(rfd, &wakeConn{fd: rfd, batcher: b, fire: func() { fired <- struct{}{} }})
		if err != nil {
			t.Fatal(err)
		}
		d.SetReadInterest(true)
		syscall.Write(wfd, []byte{1})
		select {
		case <-fired:
		case <-time.After(10 * time.Second):
			t.Fatal("wake-up never delivered")
		}
		d.Close() // drops the routing table's reference to the conn
	}()
	// The poller is now parked in epoll_wait after a pass that used b.
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("Batcher still reachable from the idle poller")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
