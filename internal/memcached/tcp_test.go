package memcached

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"icilk"
	"icilk/internal/netpoll"
	"icilk/internal/netreal"
	"icilk/internal/xrand"
)

// TestICilkServerOverRealTCP runs the task-parallel memcached over a
// real loopback TCP socket, on each readiness transport netreal has
// here, and drives it with a plain bufio client — the deployment path
// of cmd/memcached-server. The pump case hides each accepted conn's fd
// behind a wrapper, which is how netreal comes to pick the pump.
func TestICilkServerOverRealTCP(t *testing.T) {
	transports := map[string]func(net.Conn) net.Conn{
		"pump": func(c net.Conn) net.Conn { return struct{ net.Conn }{c} },
	}
	if netpoll.Supported {
		transports["poll"] = func(c net.Conn) net.Conn { return c }
	}
	for name, wrap := range transports {
		t.Run(name, func(t *testing.T) {
			rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			store := NewStore(StoreConfig{})
			srv := NewICilkServer(store, rt, ICilkConfig{})
			srv.StartCrawler()
			defer srv.Close()

			nl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Skipf("loopback TCP unavailable: %v", err)
			}
			defer nl.Close()
			opts := netreal.Options{Batcher: rt.IOBatcher()}
			go func() {
				for {
					nc, err := nl.Accept()
					if err != nil {
						return
					}
					srv.HandleConn(netreal.WrapOptions(wrap(nc), opts))
				}
			}()

			cli, err := net.Dial("tcp", nl.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			rd := bufio.NewReader(cli)
			expect := func(req, want string) {
				t.Helper()
				if _, err := cli.Write([]byte(req)); err != nil {
					t.Fatal(err)
				}
				line, err := rd.ReadString('\n')
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(line, want) {
					t.Fatalf("req %q -> %q, want prefix %q", req, line, want)
				}
			}

			expect("set tcp 0 0 3\r\nabc\r\n", "STORED")
			expect("get tcp\r\n", "VALUE tcp 0 3")
			// Drain the remainder of the get response.
			rd.ReadString('\n') // abc
			rd.ReadString('\n') // END
			expect("delete tcp\r\n", "DELETED")
			expect("version\r\n", "VERSION")

			// A slow reader: a fresh connection pipelines gets of a 1 MiB
			// value, 16 MiB of replies against a few MiB of socket
			// buffer, and reads nothing for a while. The server must not
			// lose, reorder or corrupt a byte; on the poller its write
			// parks for EPOLLOUT instead of blocking a worker.
			const gets = 16
			big := make([]byte, maxItemBytes)
			rng := xrand.New(7)
			for i := range big {
				big[i] = byte(rng.Uint64())
			}
			expect(fmt.Sprintf("set big 0 0 %d\r\n%s\r\n", len(big), big), "STORED")
			ctls := netpoll.PollStats.EpollCtls()
			slow, err := net.Dial("tcp", nl.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer slow.Close()
			if _, err := slow.Write([]byte(strings.Repeat("get big\r\n", gets))); err != nil {
				t.Fatal(err)
			}
			time.Sleep(100 * time.Millisecond) // the server fills the socket meanwhile
			srd := bufio.NewReader(slow)
			header := fmt.Sprintf("VALUE big 0 %d\r\n", len(big))
			got := make([]byte, len(big)+len("\r\nEND\r\n"))
			for i := 0; i < gets; i++ {
				line, err := srd.ReadString('\n')
				if err != nil || line != header {
					t.Fatalf("reply %d: header %q (%v), want %q", i, line, err, header)
				}
				if _, err := io.ReadFull(srd, got); err != nil {
					t.Fatalf("reply %d: %v", i, err)
				}
				if !bytes.Equal(got[:len(big)], big) || string(got[len(big):]) != "\r\nEND\r\n" {
					t.Fatalf("reply %d: value or trailer differs from what was stored", i)
				}
			}
			// One epoll_ctl registers the connection; a park costs two
			// more: EPOLLOUT on, and off once the poller has written the
			// last byte, which can come just after the client read it.
			if name == "poll" {
				parked := func() bool { return netpoll.PollStats.EpollCtls()-ctls >= 3 }
				for deadline := time.Now().Add(5 * time.Second); !parked() && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if !parked() {
					t.Fatalf("%d epoll_ctls for the slow reader's connection: its replies never parked for EPOLLOUT",
						netpoll.PollStats.EpollCtls()-ctls)
				}
			}
		})
	}
}
