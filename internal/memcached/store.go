// Package memcached reimplements the Memcached object-caching server
// used as the paper's headline benchmark (Section 3): an in-memory
// key-value store for small objects, a hash table whose entries are
// kept in (approximately) least-recently-used order, and the text
// protocol. Two server frontends expose the same store:
//
//   - PthreadServer: the baseline architecture — a fixed set of
//     worker threads, each running a libevent-style event loop, with
//     request handling written as an explicit state machine in a
//     callback (the structure the paper describes as "a large state
//     machine using a switch-statement in a loop").
//   - ICilkServer: the task-parallel port — each client connection is
//     a future routine; reads use I/O futures, so request handling is
//     straight-line synchronous code and the scheduler multiplexes
//     connections.
//
// Item memory follows the original's slab allocator in spirit: a value
// lives in a buffer of its size class, an overwrite that stays in the
// class copies into that buffer, and every dropped item goes — struct
// and buffer together — on a bounded per-shard free list of its class,
// from which the next insert takes it; the key's bytes live in a second
// buffer that is recycled with the item. A steady-state set therefore
// allocates nothing. The price is the contract that makes it safe:
// NOTHING LEAVES THE SHARD LOCK. No *Item, no view of an Item's Value
// and no uncloned Key may be used after sh.mu is released; readers
// render or copy a hit while they hold it (Store.AppendHit, Store.Get).
package memcached

import (
	"bytes"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"icilk/internal/invariant"
)

// Item is one cache entry. LRU links are intrusive and guarded by the
// owning shard's lock; a listed (free) item is chained through next.
type Item struct {
	Key      string // aliases kbuf: strings.Clone it before it leaves the shard lock
	Value    []byte // cap is the size class's, so a class is a capacity
	Flags    uint32
	ExpireAt int64  // unix seconds; 0 = never
	CAS      uint64 // unique per successful store

	prev, next *Item
	lastBump   int64 // last LRU move-to-front (unix nanoseconds)
	class      int8  // index into shard.free; -1 beyond the largest class

	// kbuf holds Key's bytes and outlives release, so an insert into a
	// recycled item allocates no string. It is rewritten only once
	// removeLocked has deleted the table entry keyed by the old bytes.
	kbuf []byte
}

// Size classes: four per octave (2^k × 1, 1.25, 1.5, 1.75), so
// neighbours are at most 25 % apart and every power of two is one.
const (
	minClassShift = 4  // smallest class: 16 B
	maxClassShift = 20 // largest: 1 MiB; longer values are not recycled
	numClasses    = (maxClassShift-minClassShift)*4 + 1
	// freePerClass bounds each shard's list per class; a release that
	// finds it full leaves the item to the GC.
	freePerClass = 32
	// poison fills a released buffer in icilk_debug builds, so a reader
	// that kept a view past the lock shows up as a torn value.
	poison = 0xdb
)

// sizeClass returns the class of an n-byte value and the buffer
// capacity that class uses; class is -1 beyond the largest.
func sizeClass(n int) (class, size int) {
	if n <= 1<<minClassShift {
		return 0, 1 << minClassShift
	}
	if n > 1<<maxClassShift {
		return -1, n
	}
	k := bits.Len(uint(n-1)) - 1 // 2^k < n <= 2^(k+1)
	q := (n - 1 - 1<<k) >> (k - 2)
	return (k-minClassShift)*4 + q + 1, 1<<k + (q+1)<<(k-2)
}

// setKey copies key into the item's key buffer and makes Key a view of
// it. The item must be in no table: a map entry's key bytes never
// change.
func (it *Item) setKey(key []byte) {
	it.kbuf = append(it.kbuf[:0], key...)
	it.Key = unsafe.String(unsafe.SliceData(it.kbuf), len(it.kbuf))
}

// keyInBuf reports whether Key is the view setKey made.
func (it *Item) keyInBuf() bool {
	return len(it.Key) == len(it.kbuf) && unsafe.StringData(it.Key) == unsafe.SliceData(it.kbuf)
}

// expired reports whether the item is past its expiry at time now.
func (it *Item) expired(now int64) bool {
	return it.ExpireAt != 0 && it.ExpireAt <= now
}

// shard is one hash-table partition with its own lock and LRU list.
type shard struct {
	mu    sync.Mutex
	table map[string]*Item
	// LRU list: head = most recently used, tail = eviction candidate.
	head, tail *Item
	bytes      int64
	// Dropped items awaiting reuse, by size class (see take/release).
	free      [numClasses]*Item
	nfree     [numClasses]uint8
	freeBytes int64
}

// take returns an unlinked item whose buffer holds n bytes: the head
// of n's class list if there is one, a fresh allocation otherwise.
// Callers hold sh.mu.
func (sh *shard) take(n int) *Item {
	c, size := sizeClass(n)
	if c >= 0 && sh.free[c] != nil {
		it := sh.free[c]
		sh.free[c], it.next = it.next, nil
		sh.nfree[c]--
		sh.freeBytes -= int64(size)
		return it
	}
	return &Item{Value: make([]byte, 0, size), class: int8(c)}
}

// release lists an item that has left the table and the LRU, with its
// buffer, for the next take of its class. Callers hold sh.mu and must
// not touch it afterwards.
func (sh *shard) release(it *Item) {
	c := it.class
	if c < 0 || sh.nfree[c] == freePerClass {
		return
	}
	buf, kbuf := it.Value[:cap(it.Value)], it.kbuf[:cap(it.kbuf)]
	if invariant.Enabled {
		for i := range buf {
			buf[i] = poison
		}
		for i := range kbuf {
			kbuf[i] = poison
		}
	}
	*it = Item{Value: buf[:0], kbuf: kbuf[:0], class: c, next: sh.free[c]}
	sh.free[c] = it
	sh.nfree[c]++
	sh.freeBytes += int64(len(buf))
}

// Counters are the server statistics exposed by the "stats" command.
type Counters struct {
	GetHits    atomic.Int64
	GetMisses  atomic.Int64
	Sets       atomic.Int64
	Deletes    atomic.Int64
	Evictions  atomic.Int64
	Expired    atomic.Int64
	CurrItems  atomic.Int64
	TotalItems atomic.Int64
	CmdFlush   atomic.Int64
	CasHits    atomic.Int64
	CasMisses  atomic.Int64
	CasBadval  atomic.Int64
}

// Reset zeroes the resettable statistics, as the "stats reset"
// command does (gauge-like counters — CurrItems — are preserved).
func (c *Counters) Reset() {
	c.GetHits.Store(0)
	c.GetMisses.Store(0)
	c.Sets.Store(0)
	c.Deletes.Store(0)
	c.Evictions.Store(0)
	c.Expired.Store(0)
	c.CmdFlush.Store(0)
	c.CasHits.Store(0)
	c.CasMisses.Store(0)
	c.CasBadval.Store(0)
}

// StoreConfig sizes the store.
type StoreConfig struct {
	// Shards is the number of hash-table partitions. Default 16.
	Shards int
	// MaxBytes bounds the total value bytes cached; LRU eviction keeps
	// the store under it. 0 means unbounded (the paper configures the
	// initial capacity "large enough for the workload" so resizing and
	// eviction never trigger during measurement).
	MaxBytes int64
	// LRUBumpInterval rate-limits move-to-front per item, like
	// memcached's 60-second threshold. Default 1s.
	LRUBumpInterval time.Duration
}

// Store is the sharded key-value store.
type Store struct {
	cfg     StoreConfig
	shards  []shard
	casSeq  atomic.Uint64
	started time.Time

	Stats Counters
}

// NewStore creates an empty store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.LRUBumpInterval <= 0 {
		cfg.LRUBumpInterval = time.Second
	}
	s := &Store{cfg: cfg, started: time.Now()}
	s.shards = make([]shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i].table = make(map[string]*Item)
	}
	return s
}

// lruUnlink removes it from the shard's list; callers hold sh.mu.
func (sh *shard) lruUnlink(it *Item) {
	if it.prev != nil {
		it.prev.next = it.next
	} else {
		sh.head = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	} else {
		sh.tail = it.prev
	}
	it.prev, it.next = nil, nil
}

// lruPushFront inserts it at the MRU end; callers hold sh.mu.
func (sh *shard) lruPushFront(it *Item) {
	it.prev = nil
	it.next = sh.head
	if sh.head != nil {
		sh.head.prev = it
	}
	sh.head = it
	if sh.tail == nil {
		sh.tail = it
	}
}

// clock reads the time once per store operation: unix seconds for
// expiry, and the nanoseconds they were derived from for bump.
func clock() (sec, nano int64) {
	nano = time.Now().UnixNano()
	return nano / int64(time.Second), nano
}

// bump moves an accessed item toward the front, rate-limited per item
// the way memcached's LRU maintenance is.
func (s *Store) bump(sh *shard, it *Item, nano int64) {
	if nano-it.lastBump < int64(s.cfg.LRUBumpInterval) {
		return
	}
	it.lastBump = nano
	sh.lruUnlink(it)
	sh.lruPushFront(it)
}

// removeLocked deletes an item and lists it for reuse; callers hold
// sh.mu.
func (s *Store) removeLocked(sh *shard, it *Item) {
	delete(sh.table, it.Key)
	sh.lruUnlink(it)
	sh.bytes -= int64(len(it.Value))
	s.Stats.CurrItems.Add(-1)
	sh.release(it)
}

// evictLocked frees space from the LRU tail until the shard fits its
// budget; callers hold sh.mu.
func (s *Store) evictLocked(sh *shard) {
	if s.cfg.MaxBytes == 0 {
		return
	}
	budget := s.cfg.MaxBytes / int64(len(s.shards))
	for sh.bytes > budget && sh.tail != nil {
		victim := sh.tail
		s.removeLocked(sh, victim)
		s.Stats.Evictions.Add(1)
	}
}

// Get returns a copy of the value (and flags, CAS) for key, taken
// under the shard lock.
func (s *Store) Get(key string) (value []byte, flags uint32, cas uint64, ok bool) {
	sh, it := s.lookup([]byte(key))
	if it == nil {
		return nil, 0, 0, false
	}
	value, flags, cas = append(make([]byte, 0, len(it.Value)), it.Value...), it.Flags, it.CAS
	sh.mu.Unlock()
	return value, flags, cas, true
}

// SetMode discriminates the storage commands.
type SetMode int

// Storage command modes.
const (
	ModeSet SetMode = iota
	ModeAdd
	ModeReplace
	ModeAppend
	ModePrepend
	ModeCAS
)

// StoreResult is the outcome of a storage command.
type StoreResult int

// Storage outcomes, mirroring the protocol replies.
const (
	Stored StoreResult = iota
	NotStored
	Exists
	NotFoundStore
)

// Set executes a storage command. casUnique is consulted only for
// ModeCAS. The value is copied into store memory, never retained.
func (s *Store) Set(mode SetMode, key string, value []byte, flags uint32, exptime int64, casUnique uint64) StoreResult {
	return s.SetB(mode, []byte(key), value, flags, exptime, casUnique)
}

// normalizeExptime applies memcached's exptime convention: 0 = never,
// <= 30 days = relative seconds, otherwise an absolute unix time.
func normalizeExptime(exptime, now int64) int64 {
	const thirtyDays = 60 * 60 * 24 * 30
	switch {
	case exptime == 0:
		return 0
	case exptime <= thirtyDays:
		return now + exptime
	default:
		return exptime
	}
}

// Delete removes key; ok is false if it was absent.
func (s *Store) Delete(key string) bool { return s.DeleteB([]byte(key)) }

// IncrDecr adjusts a numeric value by delta (decrements clamp at 0,
// per the protocol). It returns the new value; ok is false when the
// key is missing; numeric is false when the stored value is not an
// unsigned decimal.
func (s *Store) IncrDecr(key string, delta uint64, incr bool) (newVal uint64, ok, numeric bool) {
	return s.IncrDecrB([]byte(key), delta, incr)
}

// Touch updates an item's expiry without reading it.
func (s *Store) Touch(key string, exptime int64) bool {
	return s.TouchB([]byte(key), exptime)
}

// FlushAll discards every item (the optional delay of the real
// protocol is not modeled).
func (s *Store) FlushAll() {
	s.Stats.CmdFlush.Add(1)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, it := range sh.table {
			s.removeLocked(sh, it)
		}
		sh.mu.Unlock()
	}
}

// Len returns the live item count.
func (s *Store) Len() int { return int(s.Stats.CurrItems.Load()) }

// Bytes returns the total cached value bytes.
func (s *Store) Bytes() int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// FreeStats returns how many dropped items the free lists hold and the
// buffer bytes they retain ("stats" free_chunks / free_bytes): at most
// freePerClass per size class per shard.
func (s *Store) FreeStats() (chunks, bytes int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, n := range sh.nfree {
			chunks += int64(n)
		}
		bytes += sh.freeBytes
		sh.mu.Unlock()
	}
	return chunks, bytes
}

// CrawlShard scans one shard, reaping expired items — the unit of
// work of the background LRU crawler thread. It returns the number
// reaped.
func (s *Store) CrawlShard(i int) int {
	now := time.Now().Unix()
	sh := &s.shards[i%len(s.shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	reaped := 0
	for it := sh.tail; it != nil; {
		prev := it.prev
		if it.expired(now) {
			s.removeLocked(sh, it)
			s.Stats.Expired.Add(1)
			reaped++
		}
		it = prev
	}
	if invariant.Enabled {
		sh.checkRecycling()
	}
	return reaped
}

// checkRecycling asserts (icilk_debug) that the free lists and the live
// set are disjoint — no listed Item reachable from the table or the
// LRU, no live item's buffer listed — that no listed buffer was written
// after its release, and that sh.bytes is the sum of live lengths.
// Callers hold sh.mu.
func (sh *shard) checkRecycling() {
	listed := make(map[*Item]bool)
	bufs := make(map[*byte]bool)
	for c, it := range sh.free {
		for ; it != nil; it = it.next {
			buf := it.Value[:cap(it.Value)]
			listed[it], bufs[&buf[0]] = true, true
			invariant.Checkf(bytes.Count(buf, []byte{poison}) == len(buf), "memcached: class %d listed buffer written after release", c)
		}
	}
	var live int64
	n := 0
	for it := sh.head; it != nil; it = it.next {
		invariant.Checkf(sh.table[it.Key] == it, "memcached: LRU item %q is not the table's", it.Key)
		invariant.Checkf(it.keyInBuf(), "memcached: item %q's key is not its key buffer (%q)", it.Key, it.kbuf)
		invariant.Checkf(!listed[it], "memcached: listed item %q reachable from the table and the LRU", it.Key)
		invariant.Checkf(!bufs[&it.Value[:1][0]], "memcached: live item %q owns a listed buffer", it.Key)
		live += int64(len(it.Value))
		n++
	}
	invariant.Checkf(n == len(sh.table), "memcached: LRU holds %d items, the table %d", n, len(sh.table))
	invariant.Checkf(live == sh.bytes, "memcached: shard counts %d bytes, live items hold %d", sh.bytes, live)
}

// Shards returns the shard count (crawler scheduling).
func (s *Store) Shards() int { return len(s.shards) }

// DumpEntry is one item's metadata as "stats cachedump" reports it.
type DumpEntry struct {
	Key      string
	Size     int   // value bytes
	ExpireAt int64 // unix seconds; 0 = never
}

// DumpShard snapshots one shard's live items in LRU order (most
// recently used first) — the deterministic enumeration behind "stats
// cachedump". The snapshot is taken under the shard lock; limit > 0
// caps the entries returned. Determinism matters beyond aesthetics:
// the reference and in-place text paths must render byte-identical
// replies (the protocol fuzzer compares them), so the walk order must
// not depend on map iteration.
func (s *Store) DumpShard(i, limit int) []DumpEntry {
	now := time.Now().Unix()
	sh := &s.shards[i%len(s.shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []DumpEntry
	for it := sh.head; it != nil; it = it.next {
		if limit > 0 && len(out) >= limit {
			break
		}
		if it.expired(now) {
			continue
		}
		out = append(out, DumpEntry{Key: strings.Clone(it.Key), Size: len(it.Value), ExpireAt: it.ExpireAt})
	}
	return out
}

// Uptime returns seconds since the store was created.
func (s *Store) Uptime() int64 { return int64(time.Since(s.started) / time.Second) }
