package cluster

import (
	"fmt"
	"testing"
)

func ringKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key:%08d", i))
	}
	return keys
}

// TestRingExactlyOneOwner: every key maps to exactly one live shard,
// and the mapping is a pure function of the ring (repeated lookups
// agree).
func TestRingExactlyOneOwner(t *testing.T) {
	shards := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r := buildRing(shards, 64)
	live := make(map[int]bool, len(shards))
	for _, s := range shards {
		live[s] = true
	}
	for _, k := range ringKeys(20000) {
		o := r.Owner(k)
		if !live[o] {
			t.Fatalf("key %q → owner %d, not a live shard", k, o)
		}
		if o2 := r.Owner(k); o2 != o {
			t.Fatalf("key %q: owner not stable (%d then %d)", k, o, o2)
		}
	}
}

// TestRingBalance: with enough virtual nodes no shard owns a wildly
// disproportionate share (a sanity bound, not a tight one — 64
// vnodes land within ~2× of fair in practice).
func TestRingBalance(t *testing.T) {
	shards := []int{0, 1, 2, 3}
	r := buildRing(shards, 64)
	counts := make([]int, len(shards))
	keys := ringKeys(40000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	fair := len(keys) / len(shards)
	for s, n := range counts {
		if n < fair/4 || n > fair*3 {
			t.Errorf("shard %d owns %d of %d keys (fair share %d): unbalanced ring", s, n, len(keys), fair)
		}
	}
}

// TestRingEpochBumpMovesOnlyRemovedKeys is the consistent-hashing
// contract: removing one shard reassigns exactly the keys it owned;
// every other key keeps its owner.
func TestRingEpochBumpMovesOnlyRemovedKeys(t *testing.T) {
	shards := []int{0, 1, 2, 3, 4, 5, 6, 7}
	const removed = 3
	before := buildRing(shards, 64)
	var remaining []int
	for _, s := range shards {
		if s != removed {
			remaining = append(remaining, s)
		}
	}
	after := buildRing(remaining, 64)
	moved, owned := 0, 0
	for _, k := range ringKeys(20000) {
		ob, oa := before.Owner(k), after.Owner(k)
		if oa == removed {
			t.Fatalf("key %q still owned by removed shard", k)
		}
		if ob == removed {
			owned++
			continue // must move somewhere; anywhere live is fine
		}
		if ob != oa {
			moved++
			t.Errorf("key %q moved %d→%d though shard %d was the one removed", k, ob, oa, removed)
			if moved > 5 {
				t.FailNow()
			}
		}
	}
	if owned == 0 {
		t.Fatal("removed shard owned no keys — test has no teeth")
	}
}

// TestRingRestoreRoundTrips: rebuilding a ring over the same shards
// (same ids, same vnode count) restores the original assignment —
// vnode positions depend only on (shard id, vnode index).
func TestRingRestoreRoundTrips(t *testing.T) {
	shards := []int{0, 1, 2, 3}
	before := buildRing(shards, 32)
	restored := buildRing(shards, 32)
	for _, k := range ringKeys(10000) {
		if b, r := before.Owner(k), restored.Owner(k); b != r {
			t.Fatalf("key %q: owner %d before, %d after restore round-trip", k, b, r)
		}
	}
}

// TestRingEmpty: a ring with no shards owns nothing.
func TestRingEmpty(t *testing.T) {
	r := buildRing(nil, 64)
	if o := r.Owner([]byte("k")); o != -1 {
		t.Fatalf("empty ring Owner = %d, want -1", o)
	}
}

// TestRingOwnerNoAlloc: routing is on the per-request fast path and
// must not allocate (the vnode names are hashed at build time only).
func TestRingOwnerNoAlloc(t *testing.T) {
	r := buildRing([]int{0, 1, 2, 3}, 64)
	key := []byte("key:00001234")
	allocs := testing.AllocsPerRun(1000, func() {
		if r.Owner(key) < 0 {
			t.Fatal("no owner")
		}
	})
	if allocs != 0 {
		t.Errorf("Ring.Owner: %.1f allocs/op, want 0", allocs)
	}
}
