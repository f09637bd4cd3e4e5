package memcached

import (
	"io"
	"runtime"
	"testing"
	"time"
	"weak"

	"icilk"
	"icilk/internal/netsim"
)

// The release-at-Close properties: a server borrows its store until
// Close, and once Close and the routines that were already running
// have returned it keeps nothing of it alive, however long the server
// value itself stays reachable.

// newReleaseRuntime is a small runtime closed with the test.
func newReleaseRuntime(t *testing.T) *icilk.Runtime {
	t.Helper()
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// icilkServerOnOwnStore builds an ICilkServer over a store nothing but
// the server references, returning a weak pointer to that store.
func icilkServerOnOwnStore(rt *icilk.Runtime, cfg ICilkConfig) (*ICilkServer, weak.Pointer[Store]) {
	store := NewStore(StoreConfig{Shards: 4})
	return NewICilkServer(store, rt, cfg), weak.Make(store)
}

// pthreadServerOnOwnStore is icilkServerOnOwnStore for the baseline.
func pthreadServerOnOwnStore() (*PthreadServer, weak.Pointer[Store]) {
	store := NewStore(StoreConfig{Shards: 4})
	return NewPthreadServer(store, PthreadConfig{Workers: 2}), weak.Make(store)
}

// requireReleased collects until the store behind w is gone. A few
// rounds allow for a routine that has completed its future but not yet
// parked; a reference that is really held fails after a second.
func requireReleased(t *testing.T, w weak.Pointer[Store]) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); ; {
		runtime.GC()
		if w.Value() == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("store still reachable after Close and the last routine returned")
		}
		time.Sleep(time.Millisecond)
	}
}

// expectLines reads one line per want and fails on the first mismatch.
func expectLines(t *testing.T, ls *lineScanner, want ...string) {
	t.Helper()
	for _, w := range want {
		line, err := ls.readLine()
		if err != nil || string(line) != w {
			t.Fatalf("reply line %q (%v), want %q", line, err, w)
		}
	}
}

// exerciseServer serves text, "stats cachedump" and binary traffic on
// connections from dial, checks every reply and closes the clients.
func exerciseServer(t *testing.T, dial func() *netsim.Endpoint) {
	t.Helper()
	text := dial()
	defer text.Close()
	text.WriteString("set k 0 0 5\r\nhello\r\nget k\r\nstats cachedump all 0\r\n")
	expectLines(t, &lineScanner{ep: text},
		"STORED", "VALUE k 0 5", "hello", "END", "ITEM k [5 b; 0 s]", "END")

	bin := dial()
	defer bin.Close()
	bin.Write(append(binRequest(binOpSet, 1, 0, setExtras(0, 0), []byte("bk"), []byte("binval")),
		binRequest(binOpGet, 2, 0, nil, []byte("bk"), nil)...))
	frames := readBinFrames(t, bin, 2)
	if frames[0].h.status != binStatusOK {
		t.Fatalf("binary set: status %#x", frames[0].h.status)
	}
	if get := frames[1]; get.h.status != binStatusOK || string(get.body[4:]) != "binval" {
		t.Fatalf("binary get: status %#x body %q", get.h.status, get.body)
	}
}

func TestCloseReleasesStoreICilk(t *testing.T) {
	for _, withMetrics := range []bool{false, true} {
		name := "plain"
		if withMetrics {
			name = "metrics"
		}
		t.Run(name, func(t *testing.T) {
			rt := newReleaseRuntime(t)
			var cfg ICilkConfig
			if withMetrics {
				// The open-conns GaugeFunc closes over the server, so the
				// runtime's registry keeps it reachable after Close, as
				// in memcached-server.
				cfg.Metrics = rt.Metrics()
			}
			srv, w := icilkServerOnOwnStore(rt, cfg)
			srv.StartCrawler()
			var routines []*icilk.Future
			exerciseServer(t, func() *netsim.Endpoint {
				cli, sep := netsim.Pipe()
				routines = append(routines, srv.HandleConn(sep))
				return cli
			})
			srv.Close()
			for _, f := range routines {
				f.Wait()
			}
			requireReleased(t, w)
			runtime.KeepAlive(srv)
		})
	}
}

func TestCloseReleasesStorePthread(t *testing.T) {
	srv, w := pthreadServerOnOwnStore()
	ln := netsim.NewListener()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	exerciseServer(t, func() *netsim.Endpoint {
		ep, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		return ep
	})
	ln.Close()
	<-served
	srv.Close()
	requireReleased(t, w)
	runtime.KeepAlive(srv)
}

// TestICilkCloseWithLiveClient: a connection open across Close keeps
// being served from the store its routine started with, the store goes
// once that client leaves, and a connection handed over after Close
// is closed without a routine.
func TestICilkCloseWithLiveClient(t *testing.T) {
	rt := newReleaseRuntime(t)
	srv, w := icilkServerOnOwnStore(rt, ICilkConfig{})
	srv.StartCrawler()
	cli, sep := netsim.Pipe()
	routine := srv.HandleConn(sep)
	ls := &lineScanner{ep: cli}
	cli.WriteString("set k 0 0 6\r\nbefore\r\nget k\r\n")
	expectLines(t, ls, "STORED", "VALUE k 0 6", "before", "END")

	srv.Close()
	cli.WriteString("get k\r\nset k 0 0 5\r\nafter\r\nget k\r\n")
	expectLines(t, ls, "VALUE k 0 6", "before", "END", "STORED", "VALUE k 0 5", "after", "END")

	late, lateSep := netsim.Pipe()
	inflight := rt.Inflight()
	if f := srv.HandleConn(lateSep); !f.Done() {
		t.Fatal("HandleConn after Close returned a pending future")
	}
	if got := rt.Inflight(); got != inflight {
		t.Fatalf("HandleConn after Close started a routine: inflight %d -> %d", inflight, got)
	}
	if got := srv.ActiveConns(); got != 1 {
		t.Fatalf("ActiveConns = %d after a late HandleConn, want 1", got)
	}
	if n, err := late.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("late connection: read %d bytes, err %v; want EOF", n, err)
	}

	cli.Close()
	routine.Wait()
	requireReleased(t, w)
	runtime.KeepAlive(srv)
}

// TestICilkCloseCutsCrawlerNap: Close does not wait out the crawler's
// crawlInterval, wherever in it Close lands.
func TestICilkCloseCutsCrawlerNap(t *testing.T) {
	rt := newReleaseRuntime(t)
	for _, offset := range []time.Duration{0, time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 95 * time.Millisecond, 150 * time.Millisecond} {
		srv := NewICilkServer(NewStore(StoreConfig{}), rt, ICilkConfig{})
		srv.StartCrawler()
		time.Sleep(offset)
		start := time.Now()
		srv.Close()
		if took := time.Since(start); took > 10*time.Millisecond {
			t.Errorf("Close %v after StartCrawler took %v, want <= 10ms", offset, took)
		}
	}
}
