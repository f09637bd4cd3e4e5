package icilk

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"

	"icilk/internal/invariant"
	"icilk/internal/netpoll"
	"icilk/internal/netreal"
	"icilk/internal/netsim"
)

// echoLines serves c until EOF: one reply line per request line, left
// in the connection's write buffer for the read path to flush when it
// next suspends.
func echoLines(rt *Runtime, c Conn) *Future {
	return rt.Submit(0, func(task *Task) any {
		lr := rt.NewLineReader(c)
		nl := []byte{'\n'}
		for {
			line, err := lr.ReadLineBytes(task)
			if err != nil {
				return nil
			}
			c.Write(line)
			c.Write(nl)
		}
	})
}

// suspendedReadAllocs drives closed-loop ping-pong round trips (the
// client sends only after the previous reply, so the server's next
// read finds nothing buffered and suspends on its I/O future) and
// returns process-wide heap allocations per suspension over the
// measured rounds. The counter is the whole process's, so a stray
// allocation by the Go runtime or by an earlier test's teardown can
// land in a window; the path's own cost is in every window, so the
// smallest of up to three is reported. roundTrip sends one request and
// blocks for its reply.
func suspendedReadAllocs(t *testing.T, rt *Runtime, roundTrip func()) float64 {
	t.Helper()
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation accounting differs under -race and icilk_debug")
	}
	const warm, rounds, windows = 500, 2000, 3
	for i := 0; i < warm; i++ {
		roundTrip()
	}
	least := 0.0
	for w := 0; w < windows; w++ {
		var m0, m1 runtime.MemStats
		s0 := rt.WasteReport().Suspends
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			roundTrip()
		}
		runtime.ReadMemStats(&m1)
		suspends := rt.WasteReport().Suspends - s0
		if suspends < rounds/2 {
			t.Fatalf("only %d of %d reads suspended: the gate is not exercising the suspend path", suspends, rounds)
		}
		perSuspend := float64(m1.Mallocs-m0.Mallocs) / float64(suspends)
		t.Logf("%d round trips, %d suspensions, %d mallocs (%.3f per suspension)",
			rounds, suspends, m1.Mallocs-m0.Mallocs, perSuspend)
		if w == 0 || perSuspend < least {
			least = perSuspend
		}
		if least == 0 {
			break
		}
	}
	return least
}

// What one suspended read may allocate. The read path allocates
// nothing (the LineReader's waiter is reused) and neither does the
// scheduler pool's FIFO under it (segments and their retire callbacks
// are recycled), so netsim gets no allowance. Over real sockets the
// read chunks come from the connection's Stats, whose free list keeps
// them across a GC, so TCP gets none either.
const (
	suspendAllocBoundNetsim = 0
	suspendAllocBoundTCP    = 0
)

// TestSuspendedReadAllocFreeNetsim gates the I/O-pool path (the
// deterministic figures, the pump fallback): readiness callback →
// pre-bound Submit → handler thread → Complete → resume.
func TestSuspendedReadAllocFreeNetsim(t *testing.T) {
	rt := newRT(t, Config{Workers: 1, Levels: 1})
	cli, srv := netsim.Pipe()
	srv.BufferWrites()
	server := echoLines(rt, srv)
	ping, reply := []byte("ping\n"), make([]byte, 16)
	perSuspend := suspendedReadAllocs(t, rt, func() {
		cli.Write(ping)
		if n, err := cli.Read(reply); err != nil || !bytes.Equal(reply[:n], ping) {
			t.Fatalf("reply %q, %v", reply[:n], err)
		}
	})
	cli.Close()
	server.Wait()
	if perSuspend > suspendAllocBoundNetsim {
		t.Errorf("%.3f allocations per suspended read, want %v", perSuspend, suspendAllocBoundNetsim)
	}
}

// TestSuspendedReadAllocFreeTCP gates the path the real servers run:
// loopback TCP, shared poller, future completed on the poller through
// the runtime's batcher.
func TestSuspendedReadAllocFreeTCP(t *testing.T) {
	rt := newRT(t, Config{Workers: 1, Levels: 1})
	cli, srv := loopbackPollConn(t, rt)
	server := echoLines(rt, srv)
	ping, reply := []byte("ping\n"), make([]byte, 16)
	perSuspend := suspendedReadAllocs(t, rt, func() {
		if _, err := cli.Write(ping); err != nil {
			t.Fatal(err)
		}
		if n, err := cli.Read(reply); err != nil || !bytes.Equal(reply[:n], ping) {
			t.Fatalf("reply %q, %v", reply[:n], err)
		}
	})
	cli.Close()
	server.Wait()
	if perSuspend > suspendAllocBoundTCP {
		t.Errorf("%.3f allocations per suspended read, want <= %v", perSuspend, suspendAllocBoundTCP)
	}
}

// loopbackPollConn connects a loopback TCP client to a server
// connection served by a poller of its own, completing futures on the
// poller through rt's batcher. Cleanup closes both ends and the poller.
func loopbackPollConn(t *testing.T, rt *Runtime) (net.Conn, *netreal.Conn) {
	t.Helper()
	if !netpoll.Supported {
		t.Skip("shared poller not compiled in")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	g, err := netpoll.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	srv := netreal.WrapOptions(nc, netreal.Options{
		Stats: &netreal.Stats{}, Group: g, Batcher: rt.IOBatcher(),
	})
	t.Cleanup(func() { srv.Close() })
	if !srv.CompletesOnPoller() {
		t.Fatal("connection does not complete on the poller")
	}
	return cli, srv
}

// TestSocketPathAllocFreeAcrossGC gates what a collection leaves the
// socket path to allocate: nothing. The server echoes pipelined
// bursts. Warm-up bursts are 4 long lines, whose replies bypass the
// write buffer (writev) while their 33 KiB fill as many read chunks as
// a measured burst does. Each measured window follows two collections
// (a sync.Pool survives only one) and sends bursts of 64 short lines,
// 32000 bytes, whose replies gather in the write buffer just below
// writeBufFlushAt: the first burst that size a connection has seen.
// The read chunks come from a free list a GC does not empty and the
// write buffer was sized when the connection was wrapped, so the
// smallest of three windows must read 0 allocations per burst.
func TestSocketPathAllocFreeAcrossGC(t *testing.T) {
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation accounting differs under -race and icilk_debug")
	}
	rt := newRT(t, Config{Workers: 1, Levels: 1})
	cli, srv := loopbackPollConn(t, rt)
	server := echoLines(rt, srv)
	burstOf := func(lines, size int) []byte {
		line := append(bytes.Repeat([]byte{'x'}, size-1), '\n')
		return bytes.Repeat(line, lines)
	}
	warmBurst, burst := burstOf(4, 8448), burstOf(64, 500)
	reply := make([]byte, max(len(warmBurst), len(burst)))
	send := func(b []byte) {
		if _, err := cli.Write(b); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(cli, reply[:len(b)]); err != nil || !bytes.Equal(reply[:len(b)], b) {
			t.Fatalf("burst of %d bytes: reply differs, %v", len(b), err)
		}
	}
	for i := 0; i < 200; i++ {
		send(warmBurst)
	}
	const bursts = 16
	least := uint64(0)
	for w := 0; w < 3; w++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < bursts; i++ {
			send(burst)
		}
		runtime.ReadMemStats(&m1)
		n := m1.Mallocs - m0.Mallocs
		t.Logf("window %d: %d allocations over %d bursts of %d bytes", w, n, bursts, len(burst))
		if w == 0 || n < least {
			least = n
		}
	}
	cli.Close()
	server.Wait()
	if least != 0 {
		t.Errorf("%.3f allocations per burst after a GC, want 0", float64(least)/bursts)
	}
}
