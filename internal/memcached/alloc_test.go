package memcached

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"

	"icilk/internal/invariant"
)

// TestGetHitTextPathZeroAlloc is the tentpole regression gate: a
// GET hit on the text protocol — parse, store lookup, reply encode —
// performs zero heap allocations at steady state. A regression here
// reintroduces per-request garbage on the hottest path the paper's
// workload exercises (90% gets).
func TestGetHitTextPathZeroAlloc(t *testing.T) {
	s := NewStore(StoreConfig{})
	if res := s.Set(ModeSet, "key:00000001", []byte("hello-world-value-64-bytes-of-payload-data-aaaaaaaaaaaaaaaaaaaaa"), 42, 0, 0); res != Stored {
		t.Fatal(res)
	}
	line := []byte("get key:00000001")
	var (
		req   RequestB
		reply []byte
	)
	allocs := testing.AllocsPerRun(1000, func() {
		needData, perr := ParseCommandB(line, &req)
		if needData != -1 || perr != nil {
			t.Fatalf("parse: %d %q", needData, perr)
		}
		var quit bool
		reply, quit = ExecuteAppend(s, &req, reply[:0])
		if quit || len(reply) == 0 {
			t.Fatal("bad execute")
		}
	})
	if allocs != 0 {
		t.Errorf("GET-hit text path: %.1f allocs/op, want 0", allocs)
	}
}

// TestGetMissTextPathZeroAlloc: misses are the overload-shedding hot
// path and must stay allocation-free too.
func TestGetMissTextPathZeroAlloc(t *testing.T) {
	s := NewStore(StoreConfig{})
	line := []byte("get key:99999999")
	var (
		req   RequestB
		reply []byte
	)
	allocs := testing.AllocsPerRun(1000, func() {
		_, perr := ParseCommandB(line, &req)
		if perr != nil {
			t.Fatalf("parse: %q", perr)
		}
		reply, _ = ExecuteAppend(s, &req, reply[:0])
	})
	if allocs != 0 {
		t.Errorf("GET-miss text path: %.1f allocs/op, want 0", allocs)
	}
}

// TestSetOverwriteZeroAlloc: a set of an existing key whose new length
// stays in the old one's size class copies into the buffer the item
// already has, same length or not.
func TestSetOverwriteZeroAlloc(t *testing.T) {
	s := NewStore(StoreConfig{})
	// 60 and 64 bytes share the 64-byte class.
	data := bytes.Repeat([]byte("x"), 64)
	lines := [2][]byte{[]byte("set key:00000001 0 0 64"), []byte("set key:00000001 0 0 60")}
	var (
		req   RequestB
		reply []byte
		i     int
	)
	set := func() {
		i++
		if needData, perr := ParseCommandB(lines[i&1], &req); needData < 0 || perr != nil {
			t.Fatalf("parse: %d %q", needData, perr)
		}
		req.Data = data[:req.Bytes]
		if reply, _ = ExecuteAppend(s, &req, reply[:0]); string(reply) != replyStored {
			t.Fatalf("reply %q", reply)
		}
	}
	set() // the insert allocates
	set()
	if allocs := testing.AllocsPerRun(1000, set); allocs != 0 {
		t.Errorf("set overwrite: %.1f allocs/op, want 0", allocs)
	}
}

// TestSetInsertEvictSteadyState: a store at MaxBytes cycling over twice
// the keys it can hold misses, inserts and evicts on every set. The
// evicted item, its value buffer and its key buffer are what the insert
// takes, so nothing is left to allocate (three objects — value, Item
// and the key's string — before items were recycled).
func TestSetInsertEvictSteadyState(t *testing.T) {
	const fit, valueLen = 256, 512
	s := NewStore(StoreConfig{Shards: 4, MaxBytes: fit * valueLen})
	keys := make([][]byte, 2*fit)
	for i := range keys {
		keys[i] = AppendKeyName(nil, uint64(i))
	}
	data := make([]byte, valueLen)
	pass := func() {
		for _, k := range keys {
			s.SetB(ModeSet, k, data, 0, 0, 0)
		}
	}
	pass()
	pass()
	s.Stats.Reset()
	const passes = 20
	perInsert := testing.AllocsPerRun(passes, pass) / float64(len(keys))
	if ev := s.Stats.Evictions.Load(); ev < int64(passes*len(keys)) {
		t.Fatalf("%d evictions over %d sets: the cycle is not evicting on every insert", ev, passes*len(keys))
	}
	if perInsert > 0.01 {
		t.Errorf("insert with eviction: %.3f allocs/op, want 0", perInsert)
	}
}

// statValue reads one "STAT <name> <n>" line off the stats reply.
func statValue(t *testing.T, s *Store, name string) int64 {
	t.Helper()
	for _, line := range bytes.Split(statsReply(s), []byte("\r\n")) {
		if f := bytes.Fields(line); len(f) == 3 && string(f[1]) == name {
			n, err := strconv.ParseInt(string(f[2]), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no STAT %s line", name)
	return 0
}

// TestFreeListBounded: however many items are dropped — by delete, by
// flush_all — a shard keeps at most freePerClass of them per size
// class, and "stats" shows what is kept.
func TestFreeListBounded(t *testing.T) {
	const shards = 4
	s := NewStore(StoreConfig{Shards: shards})
	lens := []int{10, 100, 5000} // classes 16, 112 and 5120
	var classBytes int64
	for _, n := range lens {
		_, size := sizeClass(n)
		classBytes += int64(size)
	}
	const perLen = 1000
	for i := 0; i < perLen*len(lens); i++ {
		s.SetB(ModeSet, AppendKeyName(nil, uint64(i)), make([]byte, lens[i%len(lens)]), 0, 0, 0)
	}
	if n := statValue(t, s, "free_chunks"); n != 0 {
		t.Fatalf("free_chunks = %d before anything was dropped", n)
	}
	for i := 0; i < perLen*len(lens)/2; i++ {
		s.DeleteB(AppendKeyName(nil, uint64(i)))
	}
	s.FlushAll()
	chunks, free := statValue(t, s, "free_chunks"), statValue(t, s, "free_bytes")
	if c, b := s.FreeStats(); c != chunks || b != free {
		t.Errorf("stats lines %d/%d, FreeStats %d/%d", chunks, free, c, b)
	}
	if max := int64(freePerClass * len(lens) * shards); chunks == 0 || chunks > max {
		t.Errorf("free_chunks = %d, want 1..%d", chunks, max)
	}
	if max := freePerClass * shards * classBytes; free == 0 || free > max {
		t.Errorf("free_bytes = %d, want 1..%d", free, max)
	}
	// The lists feed the next inserts and shrink as they do.
	for i := 0; i < perLen; i++ {
		s.SetB(ModeSet, AppendKeyName(nil, uint64(i)), make([]byte, lens[0]), 0, 0, 0)
	}
	if n := statValue(t, s, "free_chunks"); n > chunks-int64(freePerClass*shards) {
		t.Errorf("free_chunks = %d after %d small inserts, want the %d small chunks gone from %d", n, perLen, freePerClass*shards, chunks)
	}
}

// Benchmarks for the protocol data path (parse + store op + reply
// encode), reported with allocs/op. Every one must show zero: the GET
// paths render under the shard lock into the caller's scratch, and the
// SET paths overwrite an existing key's value in the buffer it has.

func BenchmarkTextGetHit(b *testing.B) {
	s := NewStore(StoreConfig{})
	s.Set(ModeSet, "key:00000001", make([]byte, 64), 0, 0, 0)
	line := []byte("get key:00000001")
	var (
		req   RequestB
		reply []byte
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParseCommandB(line, &req)
		reply, _ = ExecuteAppend(s, &req, reply[:0])
	}
	_ = reply
}

func BenchmarkTextSet(b *testing.B) {
	s := NewStore(StoreConfig{})
	line := []byte("set key:00000001 0 0 64")
	data := make([]byte, 64)
	var (
		req   RequestB
		reply []byte
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParseCommandB(line, &req)
		req.Data = data
		reply, _ = ExecuteAppend(s, &req, reply[:0])
	}
	_ = reply
}

// TestCrawlerNapAllocFree: an idle server's crawler naps without
// allocating — its nap future and timer are made once and rearmed —
// so the process allocates less than one object per nap.
func TestCrawlerNapAllocFree(t *testing.T) {
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation accounting differs under -race and icilk_debug")
	}
	rt := newReleaseRuntime(t)
	srv := NewICilkServer(NewStore(StoreConfig{}), rt, ICilkConfig{})
	defer srv.Close()
	srv.StartCrawler()
	time.Sleep(crawlInterval + crawlInterval/2) // into the first rearmed nap

	var before, after runtime.MemStats
	naps := rt.WasteReport().Suspends
	runtime.ReadMemStats(&before)
	time.Sleep(8 * crawlInterval)
	runtime.ReadMemStats(&after)
	naps = rt.WasteReport().Suspends - naps
	if naps < 5 {
		t.Fatalf("crawler napped %d times in %v, want >= 5", naps, 8*crawlInterval)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(naps)
	t.Logf("%.2f allocations per crawler nap over %d naps", per, naps)
	if per >= 1 {
		t.Errorf("%.2f allocations per crawler nap, want < 1", per)
	}
}

// TestPreloadOverwriteAllocFree: Preload encodes every key into one
// reused buffer and stores it with SetB, so a second Preload over the
// same store, all overwrites of the same size, allocates nothing per
// key: preloading 4096 keys costs what preloading 256 does (the value
// and the key buffer).
func TestPreloadOverwriteAllocFree(t *testing.T) {
	if invariant.Race || invariant.Enabled {
		t.Skip("allocation accounting differs under -race and icilk_debug")
	}
	s := NewStore(StoreConfig{})
	small := WorkloadConfig{KeySpace: 256, ValueSize: 64}
	large := WorkloadConfig{KeySpace: 4096, ValueSize: 64}
	Preload(s, large)
	few := testing.AllocsPerRun(5, func() { Preload(s, small) })
	many := testing.AllocsPerRun(5, func() { Preload(s, large) })
	if perKey := (many - few) / float64(large.KeySpace-small.KeySpace); perKey != 0 {
		t.Errorf("Preload overwrite: %.0f allocs for %d keys, %.0f for %d (%.4f per key), want 0 per key",
			many, large.KeySpace, few, small.KeySpace, perKey)
	}
}
