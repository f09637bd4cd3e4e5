package memcached

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"icilk"
	"icilk/internal/netsim"
	"icilk/internal/stats"
)

// dialAndExchange runs a scripted conversation against a server
// behind ln and returns the concatenated response bytes.
func dialAndExchange(t *testing.T, ln *netsim.Listener, script []string, wantSubstr []string) {
	t.Helper()
	ep, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ls := &lineScanner{ep: ep}
	for i, req := range script {
		if _, err := ep.WriteString(req); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if wantSubstr[i] == "" {
			continue // noreply
		}
		var got strings.Builder
		// Read lines until the expected marker appears.
		deadline := time.Now().Add(5 * time.Second)
		for {
			line, err := ls.readLine()
			if err != nil {
				t.Fatalf("read %d (%q): %v (so far %q)", i, req, err, got.String())
			}
			got.Write(line)
			got.WriteString("\n")
			if strings.Contains(got.String(), wantSubstr[i]) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %q, got %q", wantSubstr[i], got.String())
			}
		}
	}
}

var serverScript = []string{
	"set greeting 1 0 5\r\nhello\r\n",
	"get greeting\r\n",
	"get greeting missing\r\n",
	"incr n 1\r\n",
	"set n 0 0 1 noreply\r\n5\r\n",
	"incr n 37\r\n",
	"delete greeting\r\n",
	"stats\r\n",
	"version\r\n",
}

var serverWant = []string{
	"STORED",
	"hello",
	"END",
	"NOT_FOUND",
	"", // noreply
	"42",
	"DELETED",
	"END",
	"VERSION",
}

func TestPthreadServerEndToEnd(t *testing.T) {
	store := NewStore(StoreConfig{})
	srv := NewPthreadServer(store, PthreadConfig{Workers: 2})
	ln := netsim.NewListener()
	go srv.Serve(ln)
	defer func() { ln.Close(); srv.Close() }()

	dialAndExchange(t, ln, serverScript, serverWant)
}

func TestICilkServerEndToEnd(t *testing.T) {
	for _, pol := range []icilk.Scheduler{icilk.Prompt, icilk.Adaptive, icilk.AdaptiveAging, icilk.AdaptiveGreedy} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			store := NewStore(StoreConfig{})
			rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2, Scheduler: pol,
				Adaptive: icilk.AdaptiveParams{Quantum: time.Millisecond, Delta: 0.5, Rho: 2}})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewICilkServer(store, rt, ICilkConfig{})
			ln := netsim.NewListener()
			go srv.Serve(ln)
			defer func() { ln.Close(); srv.Close(); rt.Close() }()

			dialAndExchange(t, ln, serverScript, serverWant)
		})
	}
}

// eachFrontend runs body as a subtest per server frontend, each on a
// fresh store served behind its own listener.
func eachFrontend(t *testing.T, body func(t *testing.T, store *Store, ln *netsim.Listener)) {
	frontends := map[string]func(*testing.T, *Store, *netsim.Listener) (stop func()){
		"pthread": func(_ *testing.T, store *Store, ln *netsim.Listener) func() {
			srv := NewPthreadServer(store, PthreadConfig{Workers: 2})
			go srv.Serve(ln)
			return srv.Close
		},
		"icilk": func(t *testing.T, store *Store, ln *netsim.Listener) func() {
			rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewICilkServer(store, rt, ICilkConfig{})
			go srv.Serve(ln)
			return func() { srv.Close(); rt.Close() }
		},
	}
	for name, start := range frontends {
		t.Run(name, func(t *testing.T) {
			store := NewStore(StoreConfig{})
			ln := netsim.NewListener()
			stop := start(t, store, ln)
			defer func() { ln.Close(); stop() }()
			body(t, store, ln)
		})
	}
}

// TestBadCrawlIDKeepsServing: an out-of-range "lru_crawler crawl"
// id gets CLIENT_ERROR on either frontend, the same connection stays
// usable, and the server goes on serving a second connection.
func TestBadCrawlIDKeepsServing(t *testing.T) {
	eachFrontend(t, func(t *testing.T, store *Store, ln *netsim.Listener) {
		const bad = "CLIENT_ERROR bad class id"
		dialAndExchange(t, ln, []string{
			"lru_crawler crawl -1\r\n",
			fmt.Sprintf("lru_crawler crawl %d\r\n", store.Shards()),
			"version\r\n",
		}, []string{bad, bad, "VERSION"})
		dialAndExchange(t, ln, []string{"version\r\n"}, []string{"VERSION"})
	})
}

// Memcached binary-protocol requests. The servers speak the text
// protocol only, so each is the start of an unknown command line.
const (
	// binaryGetK is a GET of key "k": magic 0x80, opcode 0x00, key
	// length 1, body length 1, zero opaque and CAS, then the key.
	binaryGetK = "\x80\x00\x00\x01" + "\x00\x00\x00\x00" + "\x00\x00\x00\x01" + zero12 + "k"
	// binarySetKey is a SET of "key" to "val": opcode 0x01, key length
	// 3, 8 bytes of extras (zero flags and exptime), body length 14.
	binarySetKey = "\x80\x01\x00\x03" + "\x08\x00\x00\x00" + "\x00\x00\x00\x0e" + zero12 + zero8 + "keyval"
	zero8        = "\x00\x00\x00\x00\x00\x00\x00\x00"
	zero12       = "\x00\x00\x00\x00" + zero8
)

// TestBinaryFrameIsUnknownCommand: a binary-protocol frame gets the
// text protocol's ERROR once its line ends, and the connection goes on
// serving text.
func TestBinaryFrameIsUnknownCommand(t *testing.T) {
	eachFrontend(t, func(t *testing.T, _ *Store, ln *netsim.Listener) {
		ep, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close() // unblocks the reader on a timeout
		if _, err := ep.WriteString(binaryGetK + "\r\nversion\r\n"); err != nil {
			t.Fatal(err)
		}
		lines := make(chan []string, 1)
		go func() {
			ls := &lineScanner{ep: ep}
			var got []string
			for len(got) < 2 {
				line, err := ls.readLine()
				if err != nil {
					break
				}
				got = append(got, string(line))
			}
			lines <- got
		}()
		select {
		case got := <-lines:
			if len(got) != 2 || got[0] != "ERROR" || !strings.HasPrefix(got[1], "VERSION ") {
				t.Fatalf("replies %q, want ERROR then VERSION", got)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("no text reply within 3 s")
		}
	})
}

func TestICilkServerPipelinedRequests(t *testing.T) {
	store := NewStore(StoreConfig{})
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewICilkServer(store, rt, ICilkConfig{})
	ln := netsim.NewListener()
	go srv.Serve(ln)
	defer func() { ln.Close(); srv.Close(); rt.Close() }()

	ep, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	// Send 50 pipelined sets in one write, crossing batchLimit twice,
	// then read 50 STORED.
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		sb.WriteString("set k 0 0 1\r\nx\r\n")
	}
	ep.WriteString(sb.String())
	ls := &lineScanner{ep: ep}
	for i := 0; i < 50; i++ {
		line, err := ls.readLine()
		if err != nil || string(line) != "STORED" {
			t.Fatalf("pipelined reply %d = %q, %v", i, line, err)
		}
	}
}

func TestLoadGeneratorAgainstBothServers(t *testing.T) {
	cfg := WorkloadConfig{
		Connections: 8,
		RPS:         2000,
		Duration:    300 * time.Millisecond,
		KeySpace:    256,
		ValueSize:   32,
	}

	t.Run("pthread", func(t *testing.T) {
		store := NewStore(StoreConfig{})
		Preload(store, cfg)
		srv := NewPthreadServer(store, PthreadConfig{Workers: 2})
		ln := netsim.NewListener()
		go srv.Serve(ln)
		defer func() { ln.Close(); srv.Close() }()

		res, err := RunLoad(ln, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed == 0 || res.Completed != res.Sent {
			t.Fatalf("sent %d completed %d errors %d", res.Sent, res.Completed, res.Errors)
		}
		if res.Errors != 0 {
			t.Fatalf("errors = %d", res.Errors)
		}
	})

	t.Run("icilk", func(t *testing.T) {
		store := NewStore(StoreConfig{})
		Preload(store, cfg)
		rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewICilkServer(store, rt, ICilkConfig{})
		ln := netsim.NewListener()
		go srv.Serve(ln)
		defer func() { ln.Close(); srv.Close(); rt.Close() }()

		res, err := RunLoad(ln, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed == 0 || res.Completed != res.Sent {
			t.Fatalf("sent %d completed %d errors %d", res.Sent, res.Completed, res.Errors)
		}
		if res.Latency.Percentile(99) <= 0 {
			t.Fatal("no latency recorded")
		}
	})
}

func TestServiceHistogramRecords(t *testing.T) {
	store := NewStore(StoreConfig{})
	rt, err := icilk.New(icilk.Config{Workers: 1, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	hist := stats.NewHistogram()
	srv := NewICilkServer(store, rt, ICilkConfig{ServiceHistogram: hist})
	ln := netsim.NewListener()
	go srv.Serve(ln)
	defer func() { ln.Close(); srv.Close() }()

	ep, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ls := &lineScanner{ep: ep}
	ep.WriteString("set h 0 0 1\r\nx\r\nget h\r\n")
	if line, _ := ls.readLine(); string(line) != "STORED" {
		t.Fatalf("set -> %q", line)
	}
	for i := 0; i < 3; i++ {
		ls.readLine() // VALUE, x, END
	}
	if hist.Count() < 2 {
		t.Fatalf("histogram recorded %d services, want >= 2", hist.Count())
	}
	if hist.Percentile(99) <= 0 {
		t.Fatal("no latency measured")
	}
}
