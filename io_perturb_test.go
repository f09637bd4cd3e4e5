//go:build icilk_debug

package icilk

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"icilk/internal/invariant/perturb"
	"icilk/internal/netpoll"
	"icilk/internal/netreal"
)

// TestPerturbPollerDelivery drives loopback TCP through a poller that
// completes futures on its own goroutine, with perturbation stretching
// the NetDeliver window (fds mapped, futures not yet completed) and
// every scheduling point behind it. Three races meet that window:
// ping-pong rounds resuming suspended reads on two levels, a handler
// closing its connection (CloseWithFD) while the poller may still hold
// the Desc from the peer's final data and hangup, and Runtime.Close
// while a read is suspended and its bytes arrive. The armed invariants
// (re-arm contract, stranded sleepers, token discipline) do the deep
// checking; the test checks every reply and that nothing hangs.
func TestPerturbPollerDelivery(t *testing.T) {
	if !netpoll.Supported {
		t.Skip("shared poller not compiled in")
	}
	for _, seed := range perturb.Seeds([]uint64{0x1, 0xdecade, 0xfeedbeef}) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			g, err := netpoll.Open(1)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			rt := newRT(t, Config{Workers: 2, Levels: 2})
			perturb.Enable(seed)
			defer perturb.Disable()

			wrap := func(nc net.Conn) *netreal.Conn {
				return netreal.WrapOptions(nc, netreal.Options{
					Stats: &netreal.Stats{}, Mode: netreal.ModePoll, Group: g, Batcher: rt.IOBatcher(),
				})
			}
			const conns, rounds = 4, 50
			var wg sync.WaitGroup
			for i := 0; i < conns; i++ {
				nc, cli := tcpConn(t)
				srv := wrap(nc)
				done := rt.Submit(i%2, func(task *Task) any {
					lr := rt.NewLineReader(srv)
					for {
						line, err := lr.ReadLineBytes(task)
						if err != nil {
							return nil
						}
						srv.Write(line)
						srv.Write([]byte{'\n'})
					}
				})
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer cli.Close()
					ping, reply := []byte("ping\n"), make([]byte, 16)
					for r := 0; r < rounds; r++ {
						if _, err := cli.Write(ping); err != nil {
							t.Errorf("round %d: %v", r, err)
							return
						}
						cli.SetReadDeadline(time.Now().Add(time.Minute))
						if n, err := cli.Read(reply); err != nil || !bytes.Equal(reply[:n], ping) {
							t.Errorf("round %d: reply %q, %v (seed %#x)", r, reply[:n], err, seed)
							return
						}
					}
					// Final data and the hangup arrive together; the
					// handler's EOF closes the connection while the
					// poller may still be delivering for it.
					cli.Write([]byte("bye\n"))
					cli.Close()
					select {
					case <-done.WaitChan():
					case <-time.After(time.Minute):
						t.Errorf("handler never saw EOF (seed %#x)", seed)
						return
					}
					srv.Close()
				}()
			}
			wg.Wait()

			// A read suspended across Runtime.Close, its bytes landing
			// while Close runs.
			nc, cli := tcpConn(t)
			defer cli.Close()
			srv := wrap(nc)
			defer srv.Close()
			s0 := rt.WasteReport().Suspends
			rt.Submit(0, func(task *Task) any {
				rt.Read(task, srv, make([]byte, 16))
				return nil
			})
			deadline := time.Now().Add(time.Minute)
			for rt.WasteReport().Suspends == s0 {
				if time.Now().After(deadline) {
					t.Fatal("the read never suspended")
				}
				time.Sleep(time.Millisecond)
			}
			wrote := make(chan struct{})
			go func() {
				defer close(wrote)
				cli.Write([]byte("late\n"))
			}()
			rt.Close()
			<-wrote
		})
	}
}
