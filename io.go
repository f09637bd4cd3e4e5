package icilk

import (
	"bytes"
	"errors"
	"io"
)

// Conn is the connection surface the I/O-future layer needs. It is
// satisfied by *netsim.Endpoint and *netreal.Conn; a different
// non-blocking socket wrapper could implement it equally well.
type Conn interface {
	// TryRead copies available bytes without blocking; n==0 with a
	// nil error means "would block"; io.EOF means the peer closed.
	TryRead(p []byte) (n int, err error)
	// ArmRead registers a one-shot callback fired when the connection
	// becomes readable (or hits EOF). If readable now, the callback
	// must run synchronously. Callers may pass the same func value on
	// every call (the read path does); an implementation must drop its
	// reference to fn once it fires, so a later ArmRead of that value
	// is a fresh registration, and at most one callback is armed at a
	// time.
	ArmRead(fn func())
	// Write sends bytes to the peer. Implementations may coalesce
	// writes until Flush; the byte slice may be reused once Write
	// returns.
	Write(p []byte) (n int, err error)
	// Flush delivers any coalesced writes to the peer. Runtime.Read
	// flushes automatically before suspending on an I/O future, so
	// handlers only need explicit flushes at response boundaries that
	// are not followed by a read on the same task (e.g. completions
	// written from a separate future routine).
	Flush() error
}

// pollerConn is the capability a connection advertises when its
// armed readiness callbacks run on a shared poller through the
// runtime's batcher (Runtime.IOBatcher). For such
// connections the poller is the I/O thread: the read path completes
// the future directly inside the callback instead of handing it to
// the I/O pool.
type pollerConn interface {
	CompletesOnPoller() bool
}

// readWaiter is everything one suspended read needs, built once and
// reused: the I/O future the task suspends on and the readiness
// callback that completes it. A connection has at most one read
// outstanding (ArmRead is a one-shot slot), so a LineReader owns one
// waiter for the connection's whole life and a suspending read
// allocates nothing; a bare Runtime.Read builds a one-off waiter the
// first time it has to suspend.
type readWaiter struct {
	f *Future
	// ready is the func handed to Conn.ArmRead, the same value every
	// time. For a poller connection it completes f on the spot, on the
	// poller; otherwise it submits the pre-bound completion to the I/O
	// handler threads, so completions keep their arrival order. Either
	// way it is correct when invoked synchronously inside ArmRead, from
	// a poller or handler thread, or through a caller's wrapper.
	ready func()
}

func (r *Runtime) newReadWaiter(c Conn) *readWaiter {
	w := &readWaiter{f: r.rt.NewIOFuture()}
	complete := func() { w.f.Complete(nil) }
	if pc, ok := c.(pollerConn); ok && pc.CompletesOnPoller() {
		w.ready = complete
	} else {
		pool := r.io
		w.ready = func() { pool.Submit(complete) }
	}
	return w
}

// wait suspends t until c is readable. The future is re-armed before
// the callback is handed out again, never after: once ArmRead has the
// callback, completion may arrive at any moment.
func (w *readWaiter) wait(t *Task, c Conn) {
	if w.f.Done() {
		w.f.Rearm() // the previous wait's completion, already observed
	}
	c.ArmRead(w.ready)
	w.f.Get(t)
}

// Read reads from c into p with synchronous semantics but
// asynchronous performance: if no data is available the calling
// task's deque suspends on an I/O future (freeing the worker) and
// resumes when the connection becomes readable. This is the paper's
// I/O-future read — the primitive that let the Memcached port delete
// its event-loop state machine.
func (r *Runtime) Read(t *Task, c Conn, p []byte) (int, error) {
	return r.read(t, c, p, nil)
}

// read is Read with the caller's reusable waiter, or nil to build one
// on demand.
func (r *Runtime) read(t *Task, c Conn, p []byte, w *readWaiter) (int, error) {
	for {
		n, err := c.TryRead(p)
		if n > 0 || err != nil {
			return n, err
		}
		// About to suspend: push any coalesced responses to the peer
		// first, or a closed-loop client would never send the next
		// request. A flush error is sticky in the writer and surfaces
		// on the handler's next write; the read side proceeds.
		c.Flush()
		if w == nil {
			w = r.newReadWaiter(c)
		}
		w.wait(t, c)
	}
}

// ReadFull reads exactly len(p) bytes (or fails with io.EOF /
// io.ErrUnexpectedEOF), suspending on I/O futures as needed.
func (r *Runtime) ReadFull(t *Task, c Conn, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := r.Read(t, c, p[total:])
		total += n
		if err != nil {
			if err == io.EOF && total > 0 && total < len(p) {
				return total, io.ErrUnexpectedEOF
			}
			return total, err
		}
	}
	return total, nil
}

// LineReader incrementally parses a byte stream into lines and fixed
// blocks, suspending the calling task on I/O futures when the stream
// runs dry. Protocol handlers (the Memcached text protocol) build on
// it.
//
// ReadLineBytes and ReadExactBytes return views into the reader's
// internal buffer: valid only until the next call that can fill or
// compact the buffer (any Read*/Peek on the same reader). Handlers
// that need a field across that boundary — e.g. a key parsed from a
// command line that must survive reading the value block — copy it to
// their own scratch first.
//
// The reader owns the connection's read waiter (see readWaiter): no
// other reader or bare Runtime.Read may be in flight on the same
// connection, which Conn.ArmRead's one-shot slot already demands.
type LineReader struct {
	r   *Runtime
	c   Conn
	w   *readWaiter
	buf []byte
	pos int // consumed prefix of buf
}

// NewLineReader wraps c.
func (r *Runtime) NewLineReader(c Conn) *LineReader {
	return &LineReader{r: r, c: c, w: r.newReadWaiter(c), buf: make([]byte, 0, 512)}
}

// fill reads more data directly into the buffer's spare capacity
// (compacting the consumed prefix first, growing only when full),
// suspending if necessary. Steady state performs no allocation.
// Returns an error on EOF.
func (lr *LineReader) fill(t *Task) error {
	// Compact consumed prefix. This invalidates outstanding
	// ReadLineBytes/ReadExactBytes views — see the type comment.
	if lr.pos > 0 {
		rest := copy(lr.buf, lr.buf[lr.pos:])
		lr.buf = lr.buf[:rest]
		lr.pos = 0
	}
	if len(lr.buf) == cap(lr.buf) {
		grown := make([]byte, len(lr.buf), 2*cap(lr.buf))
		copy(grown, lr.buf)
		lr.buf = grown
	}
	n, err := lr.r.read(t, lr.c, lr.buf[len(lr.buf):cap(lr.buf)], lr.w)
	if n > 0 {
		lr.buf = lr.buf[:len(lr.buf)+n]
		return nil
	}
	return err
}

// maxLineBytes is how much ReadLineBytes buffers looking for a
// newline. A peer that sends more without one is not speaking a line
// protocol, and the buffer must not follow it up without limit.
const maxLineBytes = 64 << 10

// ErrLineTooLong is returned by ReadLineBytes when 64 KiB are
// buffered and hold no newline. The bytes stay unconsumed; a server
// cannot recover the framing and closes the connection.
var ErrLineTooLong = errors.New("icilk: line too long")

// ReadLineBytes returns the next CRLF- or LF-terminated line (without
// the terminator) as a view into the internal buffer, suspending
// until one is available. Valid until the next read on this reader.
func (lr *LineReader) ReadLineBytes(t *Task) ([]byte, error) {
	for {
		if i := bytes.IndexByte(lr.buf[lr.pos:], '\n'); i >= 0 {
			line := lr.buf[lr.pos : lr.pos+i]
			lr.pos += i + 1
			// Strip optional CR.
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			return line, nil
		}
		if len(lr.buf)-lr.pos >= maxLineBytes {
			return nil, ErrLineTooLong
		}
		if err := lr.fill(t); err != nil {
			return nil, err
		}
	}
}

// ReadExactBytes returns the next n bytes with no framing assumptions
// as a view into the internal buffer, suspending until available.
// Valid until the next read on this reader.
func (lr *LineReader) ReadExactBytes(t *Task, n int) ([]byte, error) {
	for len(lr.buf)-lr.pos < n {
		if err := lr.fill(t); err != nil {
			return nil, err
		}
	}
	out := lr.buf[lr.pos : lr.pos+n]
	lr.pos += n
	return out, nil
}

// Buffered reports whether unconsumed bytes are already available
// (used by servers to batch multiple pipelined requests before
// yielding, as the pthread Memcached does up to a threshold).
func (lr *LineReader) Buffered() bool { return lr.pos < len(lr.buf) }
