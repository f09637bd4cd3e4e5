package memcached

// Byte-key store operations for the allocation-free protocol path.
// Keys arrive as views into connection buffers; lookups use the
// compiler-recognized map[string(b)] pattern so no string is
// materialized, and a key is only converted when an entry is actually
// inserted. Values are copied in — into the buffer the item already
// has whenever the size class allows (see store.go's header) — and
// rendered or copied out under the shard lock, never handed out.

import (
	"strconv"
	"time"

	"icilk/internal/wire"
)

// fnv1aB is fnv1a over a byte-slice key.
func fnv1aB(key []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (s *Store) shardForB(key []byte) *shard {
	return &s.shards[fnv1aB(key)%uint32(len(s.shards))]
}

// getLockedB looks up a live item, reaping it if expired; callers
// hold sh.mu.
func (s *Store) getLockedB(sh *shard, key []byte, now int64) *Item {
	it, ok := sh.table[string(key)]
	if !ok {
		return nil
	}
	if it.expired(now) {
		s.removeLocked(sh, it)
		s.Stats.Expired.Add(1)
		return nil
	}
	return it
}

// lookup is the one way in for reads: it locks key's shard, finds the
// live item, counts the hit or miss and bumps the LRU. On a hit it
// returns with sh.mu HELD: the caller renders or copies it.Value and
// then unlocks, and neither it nor a view of its Value is used after
// that (the next writer overwrites the buffer in place). On a miss the
// lock is already released and it is nil.
func (s *Store) lookup(key []byte) (sh *shard, it *Item) {
	now, nano := clock()
	sh = s.shardForB(key)
	sh.mu.Lock()
	if it = s.getLockedB(sh, key, now); it == nil {
		sh.mu.Unlock()
		s.Stats.GetMisses.Add(1)
		return nil, nil
	}
	s.bump(sh, it, nano)
	s.Stats.GetHits.Add(1)
	return sh, it
}

// AppendHit is the serving paths' read: on a hit it appends key's
// value line (AppendValueLine) to dst while the shard lock is held, so
// the reply holds a whole value whatever writers do next. Side effects
// (hit/miss counters, LRU bump) match Get.
func (s *Store) AppendHit(dst, key []byte, withCAS bool) []byte {
	sh, it := s.lookup(key)
	if it == nil {
		return dst
	}
	dst = AppendValueLine(dst, key, it.Value, it.Flags, it.CAS, withCAS)
	sh.mu.Unlock()
	return dst
}

// GetView returns the stored value slice for key without copying, plus
// flags and CAS. The view is READ-ONLY and valid only until the key's
// next mutation or removal, which rewrites or recycles the buffer: it
// is for single-goroutine tools and probes, and no serving path uses
// it (they go through AppendHit). Side effects match Get.
func (s *Store) GetView(key []byte) (value []byte, flags uint32, cas uint64, ok bool) {
	sh, it := s.lookup(key)
	if it == nil {
		return nil, 0, 0, false
	}
	value, flags, cas = it.Value, it.Flags, it.CAS
	sh.mu.Unlock()
	return value, flags, cas, true
}

// SetB executes a storage command with a byte-slice key. Both key and
// value may be transient views into a connection buffer: the value is
// copied into store memory and the key is converted to a string only
// when a new entry is inserted. casUnique is consulted only for
// ModeCAS.
func (s *Store) SetB(mode SetMode, key []byte, value []byte, flags uint32, exptime int64, casUnique uint64) StoreResult {
	now, nano := clock()
	sh := s.shardForB(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := s.getLockedB(sh, key, now)

	// The new value is head+tail; a store of an existing key counts as a
	// use of it.
	var head []byte
	tail, expireAt, bump := value, normalizeExptime(exptime, now), old != nil
	switch mode {
	case ModeAdd:
		if old != nil {
			return NotStored
		}
	case ModeReplace:
		if old == nil {
			return NotStored
		}
	case ModeAppend, ModePrepend:
		if old == nil {
			return NotStored
		}
		// Append/prepend keep the existing flags and exptime, and the
		// item's place in the LRU.
		flags, expireAt, bump = old.Flags, old.ExpireAt, false
		if head = old.Value; mode == ModePrepend {
			head, tail = value, old.Value
		}
	case ModeCAS:
		if old == nil {
			s.Stats.CasMisses.Add(1)
			return NotFoundStore
		}
		if old.CAS != casUnique {
			s.Stats.CasBadval.Add(1)
			return Exists
		}
		s.Stats.CasHits.Add(1)
	}
	it := s.writeLocked(sh, old, key, head, tail, flags, expireAt, nano)
	if bump {
		s.bump(sh, it, nano)
	}
	s.evictLocked(sh)
	s.Stats.Sets.Add(1)
	return Stored
}

// writeLocked makes head+tail the value of key, whose live item is old
// (nil: insert), and returns the item holding it, with a fresh CAS. The
// bytes land in old's buffer when the new length falls in that
// buffer's size class (head or tail may be old.Value itself: append,
// prepend), otherwise in a recycled or new item's of the right class.
// Callers hold sh.mu.
func (s *Store) writeLocked(sh *shard, old *Item, key, head, tail []byte, flags uint32, expireAt, nano int64) *Item {
	n := len(head) + len(tail)
	it, oldLen := old, 0
	if old != nil {
		oldLen = len(old.Value)
	}
	if c, _ := sizeClass(n); old == nil || c < 0 || c != int(old.class) {
		it = sh.take(n)
	}
	// tail first: in place, a prepend's tail is the old value moving up
	// (copy is a memmove) and an append's head is already where it goes.
	buf := it.Value[:n]
	copy(buf[len(head):], tail)
	copy(buf, head)
	if old != nil && it != old {
		// The value changed class: old keeps its key, table slot and LRU
		// place and trades buffers with the item just taken, which goes
		// back on the lists carrying the one old had.
		it.Value, it.class, old.class = old.Value, old.class, it.class
		sh.release(it)
		it = old
	}
	it.Value, it.Flags, it.ExpireAt, it.CAS = buf, flags, expireAt, s.casSeq.Add(1)
	sh.bytes += int64(n - oldLen)
	if old == nil {
		it.setKey(key)
		it.lastBump = nano
		sh.table[it.Key] = it
		sh.lruPushFront(it)
		s.Stats.CurrItems.Add(1)
		s.Stats.TotalItems.Add(1)
	}
	return it
}

// DeleteB removes a byte-slice key; ok is false if it was absent.
func (s *Store) DeleteB(key []byte) bool {
	now := time.Now().Unix()
	sh := s.shardForB(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it := s.getLockedB(sh, key, now)
	if it == nil {
		return false
	}
	s.removeLocked(sh, it)
	s.Stats.Deletes.Add(1)
	return true
}

// IncrDecrB adjusts a numeric value by delta for a byte-slice key,
// with Incr/Decr's semantics, parsing the stored value in place and
// rendering the result back into its buffer.
func (s *Store) IncrDecrB(key []byte, delta uint64, incr bool) (newVal uint64, ok, numeric bool) {
	now, nano := clock()
	sh := s.shardForB(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it := s.getLockedB(sh, key, now)
	if it == nil {
		return 0, false, true
	}
	cur, valid := wire.ParseUint(it.Value, 64)
	if !valid {
		return 0, true, false
	}
	if incr {
		cur += delta
	} else if cur < delta {
		cur = 0
	} else {
		cur -= delta
	}
	var num [20]byte
	s.writeLocked(sh, it, key, nil, strconv.AppendUint(num[:0], cur, 10), it.Flags, it.ExpireAt, nano)
	s.bump(sh, it, nano)
	return cur, true, true
}

// TouchB updates an item's expiry without reading it, by byte-slice
// key.
func (s *Store) TouchB(key []byte, exptime int64) bool {
	now := time.Now().Unix()
	sh := s.shardForB(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it := s.getLockedB(sh, key, now)
	if it == nil {
		return false
	}
	it.ExpireAt = normalizeExptime(exptime, now)
	return true
}
