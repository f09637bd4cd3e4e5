package icilk

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"icilk/internal/netpoll"
	"icilk/internal/netreal"
)

// tcpConn returns the accepted end of a loopback TCP connection (to
// wrap) and the client end that dialed it.
func tcpConn(t *testing.T) (srv, cli net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if srv, err = ln.Accept(); err != nil {
		cli.Close()
		t.Fatal(err)
	}
	return srv, cli
}

// metricValue reads one unlabelled series from the runtime's registry.
func metricValue(t *testing.T, rt *Runtime, name string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(rt.Metrics().String()))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("no series %s in the registry", name)
	return 0
}

// TestPollerCompletesWithoutIOPool: the shared poller is the I/O
// thread for its sockets. Request/reply rounds whose reads suspend
// complete their futures on the poller, so the I/O pool's handler
// threads run none of them.
func TestPollerCompletesWithoutIOPool(t *testing.T) {
	if !netpoll.Supported {
		t.Skip("shared poller not compiled in")
	}
	rt := newRT(t, Config{Workers: 1, Levels: 1})
	nc, cli := tcpConn(t)
	defer cli.Close()
	srv := netreal.WrapOptions(nc, netreal.Options{
		Stats: &netreal.Stats{}, Batcher: rt.IOBatcher(),
	})
	defer srv.Close()
	server := echoLines(rt, srv)

	before := metricValue(t, rt, "icilk_io_completions_total")
	s0 := rt.WasteReport().Suspends
	ping, reply := []byte("ping\n"), make([]byte, 16)
	for i := 0; i < 1000; i++ {
		if _, err := cli.Write(ping); err != nil {
			t.Fatal(err)
		}
		if n, err := cli.Read(reply); err != nil || !bytes.Equal(reply[:n], ping) {
			t.Fatalf("round %d: reply %q, %v", i, reply[:n], err)
		}
	}
	if rt.WasteReport().Suspends == s0 {
		t.Fatal("no read suspended: the rounds did not exercise a completion")
	}
	if got := metricValue(t, rt, "icilk_io_completions_total"); got != before {
		t.Errorf("icilk_io_completions_total moved %v -> %v: poller completions crossed the I/O pool", before, got)
	}
	cli.Close()
	server.Wait()
}

// TestLateCompletionAfterCloseTCP: a poller outlives the runtime
// whose connection it serves. Data arriving for a read that was
// suspended when the runtime closed reaches a stopped runtime's
// SubmitBatch, which must run nothing — no panic, no race — and
// closing the connection and its poller must leave no goroutine
// behind but the suspended read's own task context, which Close
// documents as parked until process exit.
func TestLateCompletionAfterCloseTCP(t *testing.T) {
	if !netpoll.Supported {
		t.Skip("shared poller not compiled in")
	}
	before := runtime.NumGoroutine()
	rt, err := New(Config{Workers: 1, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := netpoll.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	nc, cli := tcpConn(t)
	st := &netreal.Stats{}
	srv := netreal.WrapOptions(nc, netreal.Options{
		Stats: st, Group: g, Batcher: rt.IOBatcher(),
	})
	rt.Submit(0, func(task *Task) any {
		rt.Read(task, srv, make([]byte, 16))
		return nil
	})
	deadline := time.Now().Add(10 * time.Second)
	for rt.WasteReport().Suspends == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the read never suspended")
		}
		time.Sleep(time.Millisecond)
	}
	rt.Close()

	late := []byte("late\n")
	if _, err := cli.Write(late); err != nil {
		t.Fatal(err)
	}
	for st.ReadBytes() < int64(len(late)) {
		if time.Now().After(deadline) {
			t.Fatal("the poller never drained the late bytes")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	cli.Close()
	g.Close()

	const parkedRead = 1
	for runtime.NumGoroutine() > before+parkedRead {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before New, %d after closing everything (want <= %d)",
				before, runtime.NumGoroutine(), before+parkedRead)
		}
		time.Sleep(time.Millisecond)
	}
}
