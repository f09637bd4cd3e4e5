package memcached

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"icilk"
	"icilk/internal/netsim"
)

// execText runs one command line through the string-path executor.
func execText(t *testing.T, s *Store, line string) []byte {
	t.Helper()
	r, needData, err := ParseCommand(line)
	if err != nil {
		return []byte(err.Error() + "\r\n")
	}
	if r == nil || needData >= 0 {
		t.Fatalf("command %q unexpectedly needs a data block", line)
	}
	reply, _ := Execute(s, r)
	return reply
}

// execBytes runs the same line through the byte-path executor.
func execBytes(t *testing.T, s *Store, line string) []byte {
	t.Helper()
	var r RequestB
	needData, perr := ParseCommandB([]byte(line), &r)
	if perr != nil {
		return perr
	}
	if needData >= 0 {
		t.Fatalf("command %q unexpectedly needs a data block", line)
	}
	reply, _ := ExecuteAppend(s, &r, nil)
	return reply
}

// TestCachedumpSequential covers the dump's ordering, formatting,
// limiting, argument validation, and the byte parity between the two
// sequential executors the fuzzer also enforces.
func TestCachedumpSequential(t *testing.T) {
	s := NewStore(StoreConfig{Shards: 2, LRUBumpInterval: time.Nanosecond})
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	perShard := make([][]string, 2)
	for _, k := range keys {
		s.Set(ModeSet, k, []byte(strings.Repeat("v", len(k))), 0, 0, 0)
		si := int(fnv1aB([]byte(k)) % 2)
		// New items are pushed at the MRU front, so the dump order is
		// reverse insertion order within a shard.
		perShard[si] = append([]string{k}, perShard[si]...)
	}
	// An already-expired item must not appear.
	s.Set(ModeSet, "ghost", []byte("g"), 0, -1, 0)

	var want strings.Builder
	total := 0
	for si := 0; si < 2; si++ {
		for _, k := range perShard[si] {
			fmt.Fprintf(&want, "ITEM %s [%d b; 0 s]\r\n", k, len(k))
			total++
		}
	}
	want.WriteString("END\r\n")
	if got := execText(t, s, "stats cachedump all 0"); string(got) != want.String() {
		t.Fatalf("cachedump all = %q, want %q", got, want.String())
	}

	// Global limit cuts across shards after exactly that many items.
	limited := execText(t, s, "stats cachedump all 2")
	if n := bytes.Count(limited, []byte("ITEM ")); n != 2 {
		t.Fatalf("limit 2 produced %d items: %q", n, limited)
	}
	if !bytes.HasSuffix(limited, []byte("END\r\n")) {
		t.Fatalf("limited dump missing END: %q", limited)
	}

	// Single-shard selection dumps only that shard's keys.
	one := string(execText(t, s, "stats cachedump 1 0"))
	for si, ks := range perShard {
		for _, k := range ks {
			if got := strings.Contains(one, "ITEM "+k+" "); got != (si == 1) {
				t.Fatalf("shard-1 dump: key %s (shard %d) present=%v: %q", k, si, got, one)
			}
		}
	}

	// Malformed requests get a CLIENT_ERROR, not a protocol wedge.
	for _, bad := range []string{
		"stats cachedump",
		"stats cachedump all",
		"stats cachedump all x",
		"stats cachedump all -1",
		"stats cachedump 7 0",
		"stats cachedump x 0",
		"stats cachedump all 0 extra",
	} {
		if got := execText(t, s, bad); !bytes.HasPrefix(got, []byte("CLIENT_ERROR")) {
			t.Fatalf("%q = %q, want CLIENT_ERROR", bad, got)
		}
	}

	// The string and byte executors must render identical bytes for
	// every dump shape (the fuzz parity property, pinned here).
	for _, line := range []string{
		"stats cachedump all 0",
		"stats cachedump all 3",
		"stats cachedump 0 0",
		"stats cachedump 1 2",
		"stats cachedump all -1",
		"stats cachedump nope 1",
	} {
		a, b := execText(t, s, line), execBytes(t, s, line)
		if !bytes.Equal(a, b) {
			t.Fatalf("%q: Execute %q != ExecuteAppend %q", line, a, b)
		}
	}
	_ = total
}

// TestICilkServerCachedump runs the dump end-to-end through the
// task-parallel server, whose intercept gathers shard snapshots with a
// parallel Map at ScanLevel — the reply must match the sequential
// executor's bytes exactly.
func TestICilkServerCachedump(t *testing.T) {
	store := NewStore(StoreConfig{Shards: 8})
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
	ls := &lineScanner{ep: ep}
	for i := 0; i < 40; i++ {
		ep.WriteString(fmt.Sprintf("set key:%d 0 0 4\r\nvvvv\r\n", i))
		if line, err := ls.readLine(); err != nil || string(line) != "STORED" {
			t.Fatalf("set %d: %q, %v", i, line, err)
		}
	}

	for _, cmd := range []string{"stats cachedump all 0", "stats cachedump all 7", "stats cachedump 3 0"} {
		want := string(execText(t, store, cmd))
		ep.WriteString(cmd + "\r\n")
		var got strings.Builder
		deadline := time.Now().Add(5 * time.Second)
		for !strings.HasSuffix(got.String(), "END\r\n") {
			if time.Now().After(deadline) {
				t.Fatalf("%q: timeout, got %q", cmd, got.String())
			}
			line, err := ls.readLine()
			if err != nil {
				t.Fatalf("%q: %v", cmd, err)
			}
			got.Write(line)
			got.WriteString("\r\n")
		}
		if got.String() != want {
			t.Fatalf("%q: parallel dump %q != sequential %q", cmd, got.String(), want)
		}
	}
}
