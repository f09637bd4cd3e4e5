// Package cluster holds the consistent-hash ring that routed keys to
// in-process runtime shards before the cluster tier left the tree
// (DESIGN.md "Tried and removed"). What remains is only what the
// pinned benchmark's cluster.ring_owner_ns probe calls.
package cluster

import (
	"sort"
	"strconv"
)

// DefaultHasher is 64-bit FNV-1a pushed through a 64-bit avalanche
// (the MurmurHash3 fmix64 finalizer). Raw FNV-1a alone lands runs of
// sequential keys (key:00000041, key:00000042) inside one vnode arc;
// the finalizer flips about half the output bits per one-character
// difference, so sequential keys scatter uniformly around the ring.
func DefaultHasher(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringPoint is one virtual node: a position on the ring owned by a
// shard.
type ringPoint struct {
	h     uint64
	shard int32
}

// Ring is an immutable routing table: the sorted virtual-node points
// of a shard set.
type Ring struct {
	points []ringPoint
}

// buildRing places vnodes virtual nodes per shard. The vnode
// positions depend only on (shard id, vnode index), so a shard's
// points are the same in every ring that contains it — removing a
// shard moves only the keys it owned.
func buildRing(shards []int, vnodes int) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(shards)*vnodes)}
	var name []byte
	for _, s := range shards {
		for v := 0; v < vnodes; v++ {
			name = name[:0]
			name = append(name, "shard-"...)
			name = strconv.AppendInt(name, int64(s), 10)
			name = append(name, "-vnode-"...)
			name = strconv.AppendInt(name, int64(v), 10)
			r.points = append(r.points, ringPoint{h: DefaultHasher(name), shard: int32(s)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Deterministic tie-break so equal hash points still yield
		// exactly one owner per key.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Owner returns the shard owning key: the shard of the first virtual
// node clockwise from the key's hash point. Exactly one shard owns
// any key. Returns -1 on an empty ring.
func (r *Ring) Owner(key []byte) int {
	if len(r.points) == 0 {
		return -1
	}
	h := DefaultHasher(key)
	// First point with h >= key hash, wrapping to 0. Manual binary
	// search keeps the routing decision allocation-free.
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].h < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return int(r.points[lo].shard)
}
