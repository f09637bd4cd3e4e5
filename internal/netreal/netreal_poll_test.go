//go:build linux && !icilk_nopoll

package netreal

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"icilk/internal/netpoll"
)

// tcpPair returns an accepted server conn and the client that dialed
// it. Unlike net.Pipe, both ends implement syscall.Conn, so the
// wrapped side can ride the shared poller.
func tcpPair(t *testing.T) (server, client *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		cc.Close()
		t.Fatal(r.err)
	}
	return r.c.(*net.TCPConn), cc.(*net.TCPConn)
}

func newPollGroup(t *testing.T) *netpoll.Group {
	t.Helper()
	g, err := netpoll.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// pattern fills a deterministic pseudorandom byte stream (same
// generator as the net.Pipe stress test, so both harnesses check the
// same sequences).
func pattern(n int, seed uint64) []byte {
	p := make([]byte, n)
	x := seed
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
	return p
}

// drainAll consumes the wrapped connection until a terminal error,
// returning everything read and the error.
func drainAll(t *testing.T, c *Conn, deadline time.Duration) ([]byte, error) {
	t.Helper()
	var got []byte
	buf := make([]byte, 8192)
	end := time.Now().Add(deadline)
	for {
		n, err := c.TryRead(buf)
		if n > 0 {
			got = append(got, buf[:n]...)
			continue
		}
		if err != nil {
			return got, err
		}
		if time.Now().After(end) {
			t.Fatalf("drainAll: no terminal error after %v (got %d bytes)", deadline, len(got))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPollerActiveSelection checks the engine selection rule: a TCP
// conn, which exposes its fd, gets the shared poller; the same kind
// of conn behind a wrapper that hides the fd gets the pump.
func TestPollerActiveSelection(t *testing.T) {
	g := newPollGroup(t)
	srv, cli := tcpPair(t)
	defer cli.Close()
	st := &Stats{}
	c := WrapOptions(srv, Options{Stats: st, Group: g})
	defer c.Close()
	if !c.PollerActive() {
		t.Fatal("TCP conn: PollerActive() = false")
	}

	srv2, cli2 := tcpPair(t)
	defer cli2.Close()
	c2 := WrapOptions(struct{ net.Conn }{srv2}, Options{Stats: st, Group: g})
	defer c2.Close()
	if c2.PollerActive() {
		t.Fatal("fd-less wrapper: PollerActive() = true")
	}
}

// TestPollPumpParity streams the same pseudorandom sequence through
// both transports and checks byte-for-byte delivery plus EOF-after-
// drain. This is the pump-vs-poller equivalence check: the consumer
// cannot tell which readiness engine fed its chunk ring. The pump
// case hides the TCP conn's fd behind a wrapper, which is how
// WrapOptions comes to pick the pump.
func TestPollPumpParity(t *testing.T) {
	const total = 4 << 20
	for _, mode := range []struct {
		name string
		wrap func(net.Conn) net.Conn
		poll bool
	}{
		{"poll", func(c net.Conn) net.Conn { return c }, true},
		{"pump", func(c net.Conn) net.Conn { return struct{ net.Conn }{c} }, false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			g := newPollGroup(t)
			srv, cli := tcpPair(t)
			st := &Stats{}
			c := WrapOptions(mode.wrap(srv), Options{Stats: st, Group: g})
			defer c.Close()
			if c.PollerActive() != mode.poll {
				t.Fatalf("PollerActive() = %v, want %v", c.PollerActive(), mode.poll)
			}

			want := pattern(total, 0x9e3779b97f4a7c15)
			go func() {
				defer cli.Close()
				for off := 0; off < total; {
					n := 97_013 // odd size: force partial chunk fills
					if off+n > total {
						n = total - off
					}
					if _, err := cli.Write(want[off : off+n]); err != nil {
						return
					}
					off += n
				}
			}()

			got, err := drainAll(t, c, 60*time.Second)
			if err != io.EOF {
				t.Fatalf("terminal error = %v, want io.EOF", err)
			}
			if len(got) != total {
				t.Fatalf("read %d bytes, want %d", len(got), total)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("byte stream mismatch")
			}
			if mode.poll && st.SysReads() == 0 {
				t.Error("poll mode counted no read syscalls")
			}
		})
	}
}

// TestPollEOFAfterDrain: bytes written just before the peer closes
// must all surface before io.EOF does.
func TestPollEOFAfterDrain(t *testing.T) {
	g := newPollGroup(t)
	srv, cli := tcpPair(t)
	c := WrapOptions(srv, Options{Stats: &Stats{}, Group: g})
	defer c.Close()

	want := pattern(3000, 7)
	if _, err := cli.Write(want); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	got, err := drainAll(t, c, 30*time.Second)
	if err != io.EOF {
		t.Fatalf("terminal error = %v, want io.EOF", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes, want %d intact", len(got), len(want))
	}
}

// TestPollRSTTerminal: a reset (SO_LINGER=0 close) must surface as a
// prompt terminal error, not a hang.
func TestPollRSTTerminal(t *testing.T) {
	g := newPollGroup(t)
	srv, cli := tcpPair(t)
	c := WrapOptions(srv, Options{Stats: &Stats{}, Group: g})
	defer c.Close()

	cli.Write([]byte("partial request then bang"))
	cli.SetLinger(0)
	cli.Close()

	_, err := drainAll(t, c, 30*time.Second)
	if err == nil {
		t.Fatal("RST produced no terminal error")
	}
}

// TestPollWriteParkNonBlocking: with the peer not reading and tiny
// kernel buffers, Write+Flush of a large reply must return without
// blocking (bytes park for EPOLLOUT), and the peer must receive every
// byte.
func TestPollWriteParkNonBlocking(t *testing.T) {
	g := newPollGroup(t)
	srv, cli := tcpPair(t)
	// Small enough that a 2 MiB reply cannot fit in kernel buffering
	// (so the park is guaranteed), large enough that the drain is not
	// throttled by a tiny receive window's delayed-ACK stalls.
	srv.SetWriteBuffer(16 << 10)
	cli.SetReadBuffer(256 << 10)
	c := WrapOptions(srv, Options{Stats: &Stats{}, Group: g})
	defer c.Close()
	if !c.PollerActive() {
		t.Skip("poller unavailable")
	}

	const total = 2 << 20
	payload := pattern(total, 42)
	// The client is NOT reading yet: a blocking transport would wedge
	// here and the test would time out.
	if _, err := c.Write(payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if !c.wparked.Load() {
		t.Fatal("a 2 MiB reply to a peer that is not reading did not park")
	}

	// Now drain from the client and verify parity.
	got := make([]byte, 0, total)
	buf := make([]byte, 64<<10)
	cli.SetReadDeadline(time.Now().Add(60 * time.Second))
	for len(got) < total {
		n, err := cli.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			t.Fatalf("client read after %d bytes: %v", len(got), err)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("parked write corrupted the byte stream")
	}
	cli.Close()
}
