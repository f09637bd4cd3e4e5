package memcached

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"icilk"
	"icilk/internal/netreal"
	"icilk/internal/netsim"
)

// hugeBodyHeader is a binary SET header that declares a 4 GiB body.
func hugeBodyHeader() []byte {
	h := make([]byte, 24)
	h[0], h[1] = binReqMagic, binOpSet
	binary.BigEndian.PutUint32(h[8:], 0xffffffff)
	binary.BigEndian.PutUint32(h[12:], 0xfeed) // opaque, echoed back
	return h
}

// hostileInputs are requests whose declared or implied length no
// server may buffer for. The first killed the process (n+2 wrapped
// negative and sliced the read buffer out of range); the others grew
// a connection's buffer until the data or the memory ran out.
var hostileInputs = []struct {
	name  string
	input []byte
	reply []byte // what the server answers before it closes
}{
	{"bytes=maxint64-1", []byte("set k 0 0 9223372036854775806\r\n"), []byte(replyTooLarge)},
	{"bytes=1<<40", []byte("set k 0 0 1099511627776\r\n"), []byte(replyTooLarge)},
	{"binary-bodyLen=4GiB", hugeBodyHeader(),
		appendBinError(nil, binOpSet, binStatusTooLarge, 0xfeed, "Too large.")},
	{"128KiB-no-newline", bytes.Repeat([]byte{'a'}, 128<<10), []byte(replyLineTooLong)},
}

// readToClose returns everything the peer sends until it closes the
// connection; a peer that keeps it open fails the test.
func readToClose(t *testing.T, c io.ReadCloser) []byte {
	t.Helper()
	type result struct {
		b   []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		b, err := io.ReadAll(c)
		done <- result{b, err}
	}()
	select {
	case r := <-done:
		return r.b // a reset instead of a clean EOF is still "closed"
	case <-time.After(10 * time.Second):
		c.Close()
		t.Fatal("server kept the connection open")
		return nil
	}
}

// heapAlloc is the live heap after a collection.
func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// checkHostileInputs sends each hostile input down a connection of
// its own and requires: the expected reply, the connection closed, a
// second connection still served, and no buffer grown for the
// declared length. replyOptional lists inputs whose reply a transport
// may lose (a TCP close with unread bytes is a reset).
func checkHostileInputs(t *testing.T, dial func() io.ReadWriteCloser, replyOptional ...string) {
	for _, in := range hostileInputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			before := heapAlloc()
			c := dial()
			defer c.Close()
			// The server may close mid-write; that is the point.
			_, _ = c.Write(in.input)
			got := readToClose(t, c)
			optional := false
			for _, name := range replyOptional {
				optional = optional || name == in.name
			}
			if !bytes.Equal(got, in.reply) && !(optional && len(got) == 0) {
				t.Errorf("reply %q, want %q", got, in.reply)
			}

			c2 := dial()
			defer c2.Close()
			if _, err := c2.Write([]byte("set other 0 0 2\r\nhi\r\nget other\r\nquit\r\n")); err != nil {
				t.Fatal(err)
			}
			want := "STORED\r\nVALUE other 0 2\r\nhi\r\nEND\r\n"
			if got := readToClose(t, c2); string(got) != want {
				t.Errorf("second connection: reply %q, want %q", got, want)
			}
			if grew := heapAlloc() - before; grew >= 1<<20 {
				t.Errorf("heap grew %d bytes serving a rejected request", grew)
			}
		})
	}
}

func TestHostileLengthsICilk(t *testing.T) {
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := NewICilkServer(NewStore(StoreConfig{}), rt, ICilkConfig{})
	checkHostileInputs(t, func() io.ReadWriteCloser {
		cli, sep := netsim.Pipe()
		srv.HandleConn(sep)
		return cli
	})
}

func TestHostileLengthsICilkTCP(t *testing.T) {
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := NewICilkServer(NewStore(StoreConfig{}), rt, ICilkConfig{})
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer nl.Close()
	go func() {
		for {
			nc, err := nl.Accept()
			if err != nil {
				return
			}
			srv.HandleConn(netreal.WrapOptions(nc, netreal.Options{}))
		}
	}()
	checkHostileInputs(t, func() io.ReadWriteCloser {
		c, err := net.Dial("tcp", nl.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}, "128KiB-no-newline")
}

func TestHostileLengthsPthread(t *testing.T) {
	srv := NewPthreadServer(NewStore(StoreConfig{}), PthreadConfig{Workers: 2})
	ln := netsim.NewListener()
	go srv.Serve(ln)
	defer func() { ln.Close(); srv.Close() }()
	checkHostileInputs(t, func() io.ReadWriteCloser {
		ep, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		return ep
	})
}

// TestBadDataChunk: a data block that does not end in CRLF where the
// command line said it would is not stored; the server answers
// CLIENT_ERROR and reads on from after the declared length. Before,
// "abcd" cut to "abc" was stored and the stream silently desynced.
func TestBadDataChunk(t *testing.T) {
	const script = "set k 0 0 3\r\nabcdXX\r\nget k\r\nquit\r\n"
	// "abcdX" is consumed as the block; "X" is then an unknown command.
	const want = replyBadDataChnk + replyError + replyEnd

	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	isrv := NewICilkServer(NewStore(StoreConfig{}), rt, ICilkConfig{})
	psrv := NewPthreadServer(NewStore(StoreConfig{}), PthreadConfig{Workers: 1})
	ln := netsim.NewListener()
	go psrv.Serve(ln)
	defer func() { ln.Close(); psrv.Close() }()

	for name, dial := range map[string]func() *netsim.Endpoint{
		"icilk": func() *netsim.Endpoint {
			cli, sep := netsim.Pipe()
			isrv.HandleConn(sep)
			return cli
		},
		"pthread": func() *netsim.Endpoint {
			ep, err := ln.Dial()
			if err != nil {
				t.Fatal(err)
			}
			return ep
		},
	} {
		c := dial()
		if _, err := c.WriteString(script); err != nil {
			t.Fatal(err)
		}
		if got := readToClose(t, c); string(got) != want {
			t.Errorf("%s: reply %q, want %q", name, got, want)
		}
		c.Close()
	}
}
