package cluster

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"icilk"
	"icilk/internal/memcached"
	"icilk/internal/netsim"
)

// watchdog fails the test if it runs past d — every e2e test here
// suspends tasks on I/O futures, and a liveness bug shows up as a
// hang, not a failure.
func watchdog(t *testing.T, d time.Duration) func() {
	t.Helper()
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(d):
			panic(fmt.Sprintf("%s: watchdog fired after %v (handler hung?)", t.Name(), d))
		}
	}()
	return func() { close(done) }
}

func newTestCluster(t *testing.T, shards int, mod func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Shards:  shards,
		VNodes:  16,
		Runtime: icilk.Config{Workers: 1, Levels: 2},
	}
	if mod != nil {
		mod(&cfg)
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// testConn is a scripted client over one in-memory connection.
type testConn struct {
	t   *testing.T
	ep  *netsim.Endpoint
	buf []byte
	pos int
}

func dialCluster(t *testing.T, cl *Cluster) *testConn {
	t.Helper()
	cli, srv := netsim.Pipe()
	cl.HandleConn(srv)
	t.Cleanup(func() { cli.Close() })
	return &testConn{t: t, ep: cli}
}

func dialSingle(t *testing.T, srv *memcached.ICilkServer) *testConn {
	t.Helper()
	cli, sep := netsim.Pipe()
	srv.HandleConn(sep)
	t.Cleanup(func() { cli.Close() })
	return &testConn{t: t, ep: cli}
}

func (c *testConn) send(req string) {
	c.t.Helper()
	if _, err := c.ep.WriteString(req); err != nil {
		c.t.Fatalf("write %q: %v", req, err)
	}
}

func (c *testConn) readLine() string {
	c.t.Helper()
	for {
		if i := bytes.IndexByte(c.buf[c.pos:], '\n'); i >= 0 {
			line := c.buf[c.pos : c.pos+i]
			c.pos += i + 1
			return strings.TrimSuffix(string(line), "\r")
		}
		if c.pos > 0 {
			c.buf = append(c.buf[:0], c.buf[c.pos:]...)
			c.pos = 0
		}
		var tmp [4096]byte
		n, err := c.ep.Read(tmp[:])
		if n > 0 {
			c.buf = append(c.buf, tmp[:n]...)
			continue
		}
		if err != nil {
			c.t.Fatalf("read: %v (buffered %q)", err, c.buf)
		}
	}
}

// readUntil collects reply lines through the first one equal to any
// terminator, returning the whole chunk (lines rejoined with \n).
func (c *testConn) readUntil(term ...string) string {
	c.t.Helper()
	var sb strings.Builder
	for {
		line := c.readLine()
		sb.WriteString(line)
		sb.WriteString("\n")
		for _, want := range term {
			if line == want {
				return sb.String()
			}
		}
	}
}

// roundTrip sends one request and reads its full reply, using the
// protocol's terminator for the request kind.
func (c *testConn) roundTrip(req string) string {
	c.t.Helper()
	c.send(req)
	if strings.HasPrefix(req, "get") {
		return c.readUntil("END", "ERROR", "SERVER_ERROR out of capacity")
	}
	return c.readLine() + "\n"
}

// parityScript exercises every routed command shape: sets and gets
// across all shards, multi-gets mixing owners with misses and
// duplicate keys, arithmetic, deletes, and storage-mode edge cases.
func parityScript() []string {
	var script []string
	for i := 0; i < 24; i++ {
		script = append(script, fmt.Sprintf("set pk%02d 7 0 8\r\nvalue%03d\r\n", i, i))
	}
	for i := 0; i < 24; i += 3 {
		script = append(script, fmt.Sprintf("get pk%02d\r\n", i))
	}
	script = append(script,
		"get pk00 pk05 pk10 pk15 pk20\r\n",
		"get pk01 missing pk07 pk01 alsomissing pk23\r\n", // misses + duplicate
		"gets pk02 pk03\r\n",
		"get pk22 pk21 pk20 pk19 pk18 pk17 pk16 pk15\r\n", // wide fan-out
		"set n 0 0 2\r\n41\r\n",
		"incr n 1\r\n",
		"decr n 40\r\n",
		"add pk00 0 0 3\r\nnew\r\n", // exists → NOT_STORED
		"add fresh 0 0 3\r\nnew\r\n",
		"replace fresh 0 0 5\r\nnewer\r\n",
		"append fresh 0 0 1\r\n!\r\n",
		"get fresh\r\n",
		"delete pk04\r\n",
		"get pk04\r\n",
		"delete nothere\r\n",
		"touch pk06 100\r\n",
	)
	return script
}

// TestClusterProtocolParity drives an identical script through a
// 4-shard cluster and a single-runtime server and requires
// byte-identical replies — routing, fan-out, and reassembly must be
// invisible to the client, including multi-get VALUE-block order.
func TestClusterProtocolParity(t *testing.T) {
	defer watchdog(t, 30*time.Second)()
	cl := newTestCluster(t, 4, nil)

	rt, err := icilk.New(icilk.Config{Workers: 1, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	single := memcached.NewICilkServer(memcached.NewStore(memcached.StoreConfig{}), rt, memcached.ICilkConfig{})

	cc := dialCluster(t, cl)
	sc := dialSingle(t, single)
	for _, req := range parityScript() {
		got := cc.roundTrip(req)
		want := sc.roundTrip(req)
		if strings.HasPrefix(req, "gets") {
			// CAS uniques are per-server sequence numbers; a sharded
			// deployment necessarily hands out different ones than a
			// single server (each shard counts independently), exactly
			// like real distributed memcached. Compare everything else.
			got, want = stripCAS(got), stripCAS(want)
		}
		if got != want {
			t.Fatalf("reply mismatch for %q:\ncluster: %q\nsingle:  %q", req, got, want)
		}
	}
}

// stripCAS drops the trailing CAS token from VALUE lines.
func stripCAS(reply string) string {
	lines := strings.Split(reply, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "VALUE ") {
			if f := strings.Fields(l); len(f) == 5 {
				lines[i] = strings.Join(f[:4], " ")
			}
		}
	}
	return strings.Join(lines, "\n")
}

// TestClusterMultiGetOrder pins the reassembly contract directly:
// VALUE blocks come back in request key order regardless of which
// shards own the keys.
func TestClusterMultiGetOrder(t *testing.T) {
	defer watchdog(t, 30*time.Second)()
	cl := newTestCluster(t, 4, nil)
	c := dialCluster(t, cl)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("ok%02d", i)
		if got := c.roundTrip(fmt.Sprintf("set %s 0 0 4\r\nv%03d\r\n", keys[i], i)); got != "STORED\n" {
			t.Fatalf("set %s: %q", keys[i], got)
		}
	}
	// Reverse order, so ring order ≠ request order almost surely.
	var req strings.Builder
	req.WriteString("get")
	for i := len(keys) - 1; i >= 0; i-- {
		req.WriteString(" ")
		req.WriteString(keys[i])
	}
	req.WriteString("\r\n")
	reply := c.roundTrip(req.String())
	lines := strings.Split(strings.TrimSuffix(reply, "\n"), "\n")
	var gotOrder []string
	for _, l := range lines {
		if strings.HasPrefix(l, "VALUE ") {
			gotOrder = append(gotOrder, strings.Fields(l)[1])
		}
	}
	if len(gotOrder) != len(keys) {
		t.Fatalf("%d VALUE blocks, want %d:\n%s", len(gotOrder), len(keys), reply)
	}
	for i, k := range gotOrder {
		if want := keys[len(keys)-1-i]; k != want {
			t.Fatalf("VALUE %d is %s, want %s (request order violated)", i, k, want)
		}
	}
}

// TestClusterDrainNoLostWrites is the rebalance acceptance test:
// writers hammer the cluster while shards drain and restore; at the
// end every write the cluster acknowledged STORED must be readable.
func TestClusterDrainNoLostWrites(t *testing.T) {
	defer watchdog(t, 60*time.Second)()
	cl := newTestCluster(t, 4, nil)

	const writers = 6
	var mu sync.Mutex
	acked := make(map[string]string) // key → last STORED value
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dialCluster(t, cl)
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d:%04d", w, seq%200)
				val := fmt.Sprintf("v%d.%06d", w, seq)
				reply := c.roundTrip(fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(val), val))
				if reply == "STORED\n" {
					mu.Lock()
					acked[key] = val
					mu.Unlock()
				}
			}
		}()
	}

	// Drain and restore two different shards while the writers run.
	for _, id := range []int{1, 3} {
		time.Sleep(30 * time.Millisecond)
		if err := cl.Drain(id); err != nil {
			t.Errorf("drain %d: %v", id, err)
		}
		time.Sleep(30 * time.Millisecond)
		if err := cl.Restore(id); err != nil {
			t.Errorf("restore %d: %v", id, err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(acked) == 0 {
		t.Fatal("no writes acknowledged — test has no teeth")
	}
	// Every acknowledged write must be readable with its last value.
	c := dialCluster(t, cl)
	for key, val := range acked {
		reply := c.roundTrip("get " + key + "\r\n")
		want := fmt.Sprintf("VALUE %s 0 %d\n%s\nEND\n", key, len(val), val)
		if reply != want {
			t.Errorf("key %s lost across drain: got %q, want %q", key, reply, want)
		}
	}
}

// TestClusterDrainErrors: draining an unknown shard, the last live
// shard, or an already-drained shard must be refused.
func TestClusterDrainErrors(t *testing.T) {
	defer watchdog(t, 30*time.Second)()
	cl := newTestCluster(t, 2, nil)
	if err := cl.Drain(7); err == nil {
		t.Error("drain of unknown shard succeeded")
	}
	if err := cl.Drain(0); err != nil {
		t.Fatalf("drain 0: %v", err)
	}
	if err := cl.Drain(0); err == nil {
		t.Error("double drain succeeded")
	}
	if err := cl.Drain(1); err == nil {
		t.Error("drained the last live shard")
	}
	if err := cl.Restore(0); err != nil {
		t.Fatalf("restore 0: %v", err)
	}
	if err := cl.Restore(0); err == nil {
		t.Error("double restore succeeded")
	}
}

// TestClusterDrainMigratesKeys: keys written before a drain remain
// readable after it (they moved to the surviving shards), and the
// drained shard's store empties.
func TestClusterDrainMigratesKeys(t *testing.T) {
	defer watchdog(t, 30*time.Second)()
	cl := newTestCluster(t, 3, nil)
	c := dialCluster(t, cl)
	const n = 120
	for i := 0; i < n; i++ {
		if got := c.roundTrip(fmt.Sprintf("set mk%03d 0 0 4\r\nm%03d\r\n", i, i)); got != "STORED\n" {
			t.Fatalf("set %d: %q", i, got)
		}
	}
	if err := cl.Drain(1); err != nil {
		t.Fatal(err)
	}
	if items := cl.Shard(1).Store().Len(); items != 0 {
		t.Errorf("drained shard still holds %d items", items)
	}
	for i := 0; i < n; i++ {
		reply := c.roundTrip(fmt.Sprintf("get mk%03d\r\n", i))
		if !strings.Contains(reply, fmt.Sprintf("m%03d", i)) {
			t.Fatalf("key mk%03d unreadable after drain: %q", i, reply)
		}
	}
}

// TestMigrateMovesWholeValues: migrateKeys walks a store that writers
// are still overwriting (a late write-all, a replica apply). The store
// overwrites in place, so what the migration hands the new owner must
// be a copy taken under the shard lock: every value that arrives is
// one write's bytes, never two writes' halves.
func TestMigrateMovesWholeValues(t *testing.T) {
	defer watchdog(t, 30*time.Second)()
	cl := newTestCluster(t, 2, nil)
	src, dst := cl.shards[0].store, cl.shards[1].store
	const keys, valueLen = 64, 4096
	key := func(i int) []byte { return []byte(fmt.Sprintf("mv%02d", i)) }
	whole := func(b byte) []byte { return bytes.Repeat([]byte{b}, valueLen) }
	for i := 0; i < keys; i++ {
		src.SetB(memcached.ModeSet, key(i), whole('a'), 0, 0, 0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := w; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Replace, not set: a key the migration has already moved
				// stays moved.
				src.SetB(memcached.ModeReplace, key(n%keys), whole(byte('b'+n%24)), 0, 0, 0)
			}
		}(w)
	}
	// Shard 0 leaves the ring: every key it holds now belongs to shard 1.
	old := cl.ring.Load()
	cl.migrateKeys(buildRing(old.Epoch()+1, []int{1}, cl.cfg.VNodes, cl.cfg.Hash))
	close(stop)
	wg.Wait()
	if n := dst.Len(); n != keys || src.Len() != 0 {
		t.Fatalf("%d keys arrived, %d stayed behind; want all %d moved", n, src.Len(), keys)
	}
	dst.Range(func(k string, v []byte, _ uint32, _ int64) bool {
		if len(v) != valueLen || !bytes.Equal(v, whole(v[0])) {
			t.Errorf("key %s arrived torn: %d bytes, starts %q, ends %q", k, len(v), v[:8], v[len(v)-8:])
		}
		return true
	})
}

// TestClusterHotPromotion: a hammered key is promoted, its mutation
// write-alls to every shard's store, and reads keep returning the
// latest value (read-your-writes across the replica set).
func TestClusterHotPromotion(t *testing.T) {
	defer watchdog(t, 30*time.Second)()
	cl := newTestCluster(t, 3, func(cfg *Config) {
		cfg.ReplicateHot = true
		cfg.HotThreshold = 4
		cfg.PromoteInterval = 2 * time.Millisecond
	})
	c := dialCluster(t, cl)
	if got := c.roundTrip("set hotkey 0 0 5\r\nfirst\r\n"); got != "STORED\n" {
		t.Fatalf("set: %q", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i := 0; i < 50; i++ {
			c.roundTrip("get hotkey\r\n")
		}
		promoted := cl.PromotedKeys()
		if len(promoted) > 0 && promoted[0] == "hotkey" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hotkey never promoted (promoted=%v)", promoted)
		}
	}
	// Mutation of a promoted key reaches every shard (write-all).
	if got := c.roundTrip("set hotkey 0 0 6\r\nsecond\r\n"); got != "STORED\n" {
		t.Fatalf("set promoted: %q", got)
	}
	for i := 0; i < cl.NumShards(); i++ {
		v, _, _, ok := cl.Shard(i).Store().Get("hotkey")
		if !ok || string(v) != "second" {
			t.Errorf("shard %d replica = %q, %v; want \"second\"", i, v, ok)
		}
	}
	// Reads (served read-any from any shard) see the new value.
	for i := 0; i < 8; i++ {
		reply := c.roundTrip("get hotkey\r\n")
		if !strings.Contains(reply, "second") {
			t.Fatalf("read %d after write-all: %q", i, reply)
		}
	}
	// Delete also write-alls: afterwards no shard serves the key.
	if got := c.roundTrip("delete hotkey\r\n"); got != "DELETED\n" {
		t.Fatalf("delete promoted: %q", got)
	}
	for i := 0; i < cl.NumShards(); i++ {
		if _, _, _, ok := cl.Shard(i).Store().Get("hotkey"); ok {
			t.Errorf("shard %d still holds deleted promoted key", i)
		}
	}
}

// TestClusterRejectsTooManyShards: the fan-out mask is a uint64, so
// New must refuse >64 shards instead of silently corrupting routing.
func TestClusterRejectsTooManyShards(t *testing.T) {
	_, err := New(Config{Shards: 65, Runtime: icilk.Config{Workers: 1, Levels: 1}})
	if err == nil {
		t.Fatal("New accepted 65 shards")
	}
}

// TestClusterBinaryRejected: binary-protocol magic drops the
// connection (cluster mode is text-only).
func TestClusterBinaryRejected(t *testing.T) {
	defer watchdog(t, 30*time.Second)()
	cl := newTestCluster(t, 2, nil)
	cli, srv := netsim.Pipe()
	f := cl.HandleConn(srv)
	if _, err := cli.Write([]byte{0x80, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Wait()
	var tmp [8]byte
	if n, err := cli.Read(tmp[:]); err == nil {
		t.Fatalf("connection still open after binary magic (read %d bytes)", n)
	}
}

// TestClusterHostileLengths: a declared data-block length no server
// may buffer for (the first wrapped negative and killed the process)
// and a 128 KiB line with no newline each draw their error and close
// that connection only; the heap does not follow the declared length.
func TestClusterHostileLengths(t *testing.T) {
	defer watchdog(t, 60*time.Second)()
	cl := newTestCluster(t, 2, nil)
	heapAlloc := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, in := range []struct{ name, input, reply string }{
		{"bytes=maxint64-1", "set k 0 0 9223372036854775806\r\n", "SERVER_ERROR object too large for cache\r\n"},
		{"bytes=1<<40", "set k 0 0 1099511627776\r\n", "SERVER_ERROR object too large for cache\r\n"},
		{"128KiB-no-newline", strings.Repeat("a", 128<<10), "CLIENT_ERROR line too long\r\n"},
	} {
		before := heapAlloc()
		cli, srv := netsim.Pipe()
		f := cl.HandleConn(srv)
		if _, err := cli.WriteString(in.input); err != nil {
			t.Fatal(err)
		}
		f.Wait() // the handler returned: the connection is closed
		got, _ := io.ReadAll(cli)
		if string(got) != in.reply {
			t.Errorf("%s: reply %q, want %q", in.name, got, in.reply)
		}
		c2 := dialCluster(t, cl)
		if got := c2.roundTrip("set other 0 0 2\r\nhi\r\n"); got != "STORED\n" {
			t.Errorf("%s: second connection set: %q", in.name, got)
		}
		if got := c2.roundTrip("get other\r\n"); got != "VALUE other 0 2\nhi\nEND\n" {
			t.Errorf("%s: second connection get: %q", in.name, got)
		}
		if grew := heapAlloc() - before; grew >= 1<<20 {
			t.Errorf("%s: heap grew %d bytes serving a rejected request", in.name, grew)
		}
	}
}

// TestClusterBadDataChunk: a block that is not followed by CRLF where
// its command line said is not stored on any shard.
func TestClusterBadDataChunk(t *testing.T) {
	defer watchdog(t, 30*time.Second)()
	cl := newTestCluster(t, 2, nil)
	c := dialCluster(t, cl)
	c.send("set k 0 0 3\r\nabcdXX\r\nget k\r\n")
	// "abcdX" is consumed as the block; "X" is then an unknown command.
	if got := c.readUntil("END"); got != "CLIENT_ERROR bad data chunk\nERROR\nEND\n" {
		t.Fatalf("reply %q", got)
	}
}

// TestClusterSnapshot: the admin snapshot reflects topology changes.
func TestClusterSnapshot(t *testing.T) {
	defer watchdog(t, 30*time.Second)()
	cl := newTestCluster(t, 3, nil)
	snap := cl.Snapshot()
	if len(snap.LiveShards) != 3 || snap.Epoch != 1 {
		t.Fatalf("initial snapshot: %+v", snap)
	}
	if err := cl.Drain(2); err != nil {
		t.Fatal(err)
	}
	snap = cl.Snapshot()
	if len(snap.LiveShards) != 2 || snap.Epoch != 2 || !snap.Shards[2].Draining {
		t.Fatalf("post-drain snapshot: %+v", snap)
	}
}
