package sched

import (
	"fmt"
	"strings"
	"sync/atomic"

	"icilk/internal/deque"
	"icilk/internal/fifoq"
	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
	"icilk/internal/trace"
)

// centralPool is the paper's centralized per-priority-level deque
// pool: for each level, a regular FIFO queue plus a mugging queue
// holding only abandoned (immediately-resumable) deques. That is the
// layout at Config.PoolShards 1, the default, and every paper-fidelity
// experiment runs there. An explicit PoolShards > 1 splits each
// level's queues into that many independent shards (a power of two),
// so that workers on parallel Ps do not serialize every spawn, steal
// and mug through one fetch-and-add pair — an opt-in whose cost is
// measured (ShardStats) and whose benefit on real cores is not yet.
//
// The protocol over the shards is MultiQueue-style relaxed selection
// (Rihani/Sanders/Dementiev; "Multi-Queues Can Be State-of-the-Art
// Priority Schedulers", PAPERS.md; in the lineage of Wimmer et al.'s
// k-relaxed priority data structures):
//
//   - Enqueue goes to the enqueuer's home shard (worker i → shard
//     i mod shards; non-worker enqueuers rotate round-robin), keeping
//     the producer side contention-free and shard load statistically
//     even.
//   - A thief samples d=2 distinct shards with its private xrand
//     stream, prefers the deeper one (the deeper shard's head element
//     has, in expectation, waited longer — depth is the age proxy that
//     keeps the selection one atomic read per shard), and pops there.
//   - If both samples miss, the thief *sweeps* every shard before
//     declaring the level empty. The sweep is what keeps the
//     promptness bitfield global and exact: a level's bit continues
//     to mean "some shard at this level has work", and empty(level)
//     (the DoubleCheckClear re-probe) scans all shards with Len
//     estimates that never under-report — so the paper's
//     high-priority reaction bound survives sharding. Only same-level
//     FIFO order is relaxed (a k-relaxation with k bounded by the
//     in-flight population of the other shards), which the relaxed
//     priority-scheduling literature shows preserves scheduling
//     bounds.
//
// Thieves check a shard's mugging queue first so abandoned deques are
// not "de-aged" behind deques that became resumable after them
// (Section 4, "Support for Aging"); with PoolShards>1 the aging
// guarantee is per-shard FIFO plus the relaxed cross-shard order.
//
// The pool is shared by the Prompt policy and by AdaptiveGreedy's
// bottom level.
type centralPool struct {
	rt        *Runtime
	shardMask uint32 // shards-1; shards is a power of two
	levels    []centralLevel

	// extHome rotates home-shard assignment for enqueues arriving
	// from non-worker goroutines (I/O threads, external submitters).
	extHome atomic.Uint32

	// sampleMisses counts sampled shards that held nothing runnable
	// while the level's bit was set (the price of relaxed selection);
	// sweeps counts the full-scan fallbacks that keep empty(level)
	// exact. Both are per-pool, exported through ShardStats.
	sampleMisses atomic.Int64
	sweeps       atomic.Int64
}

type centralLevel struct {
	shards []centralShard
}

// centralShard is one shard of one level's pool: the paper's
// two-queue structure. Both queues share the runtime's epoch
// collector, so one worker pin covers every shard it touches during a
// sweep.
type centralShard struct {
	regular *fifoq.Queue[*dq]
	mugging *fifoq.Queue[*dq]
}

func newCentralPool(rt *Runtime) *centralPool {
	shards := rt.cfg.PoolShards
	p := &centralPool{rt: rt, shardMask: uint32(shards - 1), levels: make([]centralLevel, rt.cfg.Levels)}
	for i := range p.levels {
		p.levels[i].shards = make([]centralShard, shards)
		for s := range p.levels[i].shards {
			sh := &p.levels[i].shards[s]
			sh.regular = fifoq.New[*dq](rt.col)
			sh.mugging = fifoq.New[*dq](rt.col)
		}
	}
	return p
}

// shardCount returns the number of shards per level.
func (p *centralPool) shardCount() int { return int(p.shardMask) + 1 }

// homeFor returns the enqueuer's home shard: the worker's identity
// folded onto the shard space, or the round-robin rotation for
// non-worker enqueuers (I/O completions, external submissions) — the
// rotation is what spreads resumption load across shards instead of
// hot-spotting shard 0.
func (p *centralPool) homeFor(w *worker) int {
	if w != nil {
		return w.id & int(p.shardMask)
	}
	return int(p.extHome.Add(1) & p.shardMask)
}

// enqueue pushes d onto its level's queue (mugging when mug is true)
// in the given home shard and sets the level's bitfield bit — "a
// worker, when enqueuing a deque into a pool, always sets the
// corresponding bit". The bit is global across shards: it is set
// after *any* shard insert, and only cleared through the
// DoubleCheckClear all-shard re-probe, so it never under-reports. The
// caller must have set the deque's queue-presence flag (the deque
// methods' needsEnqueue contract does this atomically with the state
// change); a deque is in at most one shard's queue at a time.
func (p *centralPool) enqueue(d *dq, mug bool, home int) {
	h := p.rt.handle()
	lvl := d.Level()
	sh := &p.levels[lvl].shards[home]
	if mug {
		sh.mugging.Enqueue(h, d)
	} else {
		sh.regular.Enqueue(h, d)
	}
	p.rt.release(h)
	if invariant.Enabled {
		// THE window of the bitfield protocol: the deque is in a shard
		// queue but the level bit is not yet set. A thief's
		// DoubleCheckClear racing into this gap must still leave the
		// level discoverable — its empty() re-probe sweeps every shard
		// and sees the queued deque, or our Set below lands after its
		// Clear.
		perturb.At(perturb.Enqueue)
	}
	p.rt.bits.Set(lvl)
	if invariant.Enabled {
		// Work is now both queued and flagged; any sleeper that persists
		// past this point missed a wake-up.
		p.rt.bits.CheckNoSleeperStranded()
	}
	p.rt.trace.Add(trace.Enqueue, -1, lvl)
}

// depth returns one shard's total discoverable population (regular +
// mugging Len estimates) — the MultiQueue selection score.
func (sh *centralShard) depth() int {
	return sh.regular.Len() + sh.mugging.Len()
}

// depths returns the instantaneous regular and mugging queue depths
// at level, summed across shards (size estimates; see fifoq.Len).
func (p *centralPool) depths(level int) (regular, mugging int) {
	for s := range p.levels[level].shards {
		sh := &p.levels[level].shards[s]
		regular += sh.regular.Len()
		mugging += sh.mugging.Len()
	}
	return regular, mugging
}

// ShardDepth is one shard's instantaneous queue depths at one level
// (observability; racy size estimates like depths).
type ShardDepth struct {
	Regular int `json:"regular"`
	Mugging int `json:"mugging"`
}

// shardDepths returns every shard's depths at level.
func (p *centralPool) shardDepths(level int) []ShardDepth {
	out := make([]ShardDepth, len(p.levels[level].shards))
	for s := range p.levels[level].shards {
		sh := &p.levels[level].shards[s]
		out[s] = ShardDepth{Regular: sh.regular.Len(), Mugging: sh.mugging.Len()}
	}
	return out
}

// shardDebug renders the level's per-shard (head,tail) tickets for
// invariant-failure messages.
func (p *centralPool) shardDebug(level int) string {
	var b strings.Builder
	for s := range p.levels[level].shards {
		sh := &p.levels[level].shards[s]
		rh, rt := sh.regular.Tickets()
		mh, mt := sh.mugging.Tickets()
		fmt.Fprintf(&b, "[s%d r=%d/%d m=%d/%d]", s, rh, rt, mh, mt)
	}
	return b.String()
}

// sampleStats returns the relaxed-selection counters.
func (p *centralPool) sampleStats() (misses, sweeps int64) {
	return p.sampleMisses.Load(), p.sweeps.Load()
}

// empty reports whether the level's pool (both queues of all shards)
// appears empty. This is the DoubleCheckClear re-probe, so it must
// never under-report: it sweeps every shard, and each queue's Len is
// a ticket-difference estimate that can transiently over-report but
// never misses a published element. The scan is non-atomic across
// shards — a deque held in a thief's hands mid-migration (dequeued
// from shard A, not yet re-enqueued into shard B) is invisible to it,
// but that deque is owned, not lost, and its re-enqueue Sets the bit
// again after the insert, so "bit clear AND pool non-empty" cannot
// persist (the same self-healing argument as the old two-queue probe,
// now per shard; the findWork Eventually assertion guards it).
func (p *centralPool) empty(level int) bool {
	for s := range p.levels[level].shards {
		sh := &p.levels[level].shards[s]
		if !sh.mugging.Empty() || !sh.regular.Empty() {
			return false
		}
	}
	return true
}

// pop tries to extract one runnable frame at the given level for
// worker w. With one shard it is the paper's exact thief protocol;
// with several it is MultiQueue relaxed selection: sample two
// distinct shards, pop from the deeper, fall back to the other, and
// finally sweep all shards so a false "level empty" is impossible
// while any shard holds a deque.
func (p *centralPool) pop(w *worker, level int) (*node, *dq, bool) {
	lp := &p.levels[level]
	n := len(lp.shards)
	if n == 1 {
		return p.popShard(w, level, 0)
	}
	if invariant.Enabled {
		// Stretch the sample→pop window: the sampled depths may be
		// stale by the time the pop lands, which the sweep below must
		// absorb.
		perturb.At(perturb.ShardSelect)
	}
	mask := int(p.shardMask)
	r := w.rng.Uint64()
	i := int(r&0xffffffff) & mask
	j := int(r>>32) & mask
	if j == i {
		j = (j + 1) & mask
	}
	di, dj := lp.shards[i].depth(), lp.shards[j].depth()
	if dj > di {
		i, j = j, i
		di, dj = dj, di
	}
	// A sampled shard whose depth estimate is zero skips the
	// (epoch-pinned) dequeue attempts entirely — Len never
	// under-reports, so a zero depth is as safe as Dequeue's own empty
	// check, and it keeps a miss to a few atomic loads. A concurrent
	// enqueue racing past the read re-Sets the level bit, so the
	// caller's DoubleCheckClear re-probe still finds it.
	trySample := func(s, d int) (*node, *dq, bool) {
		if d == 0 {
			p.sampleMisses.Add(1)
			return nil, nil, false
		}
		frame, dqv, ok := p.popShard(w, level, s)
		if !ok {
			p.sampleMisses.Add(1)
		}
		return frame, dqv, ok
	}
	if frame, d, ok := trySample(i, di); ok {
		return frame, d, true
	}
	if frame, d, ok := trySample(j, dj); ok {
		return frame, d, true
	}
	// Both samples missed: sweep the remaining shards (starting past
	// the thief's home so concurrent sweepers fan out) before
	// reporting the level empty. Without the sweep a populated shard
	// outside the sample could be declared invisible and the caller
	// would DoubleCheckClear a bit that must stay set — the sweep is
	// load-bearing for the promptness bound, not an optimization.
	p.sweeps.Add(1)
	if invariant.Enabled {
		perturb.At(perturb.ShardSweep)
	}
	start := (w.id + 1) & mask
	for k := 0; k < n; k++ {
		s := (start + k) & mask
		if s == i || s == j || lp.shards[s].depth() == 0 {
			continue
		}
		if frame, d, ok := p.popShard(w, level, s); ok {
			return frame, d, true
		}
	}
	return nil, nil, false
}

// popShard runs the paper's thief protocol against one shard's
// queues: pop a deque off the head (mugging queue first); mug it if
// resumable, steal its top frame if it has one, drop it if empty
// (lazy removal); push it back on the thief's home shard's regular
// tail if it still holds stealable work. On a steal the frame is
// adopted onto a fresh active deque for the thief.
func (p *centralPool) popShard(w *worker, level, shard int) (*node, *dq, bool) {
	sh := &p.levels[level].shards[shard]
	for {
		if invariant.Enabled {
			perturb.At(perturb.Steal)
		}
		fromMugging := true
		d, ok := sh.mugging.Dequeue(w.part)
		if !ok {
			fromMugging = false
			d, ok = sh.regular.Dequeue(w.part)
		}
		if !ok {
			return nil, nil, false
		}
		res, frame, pushBack := d.TakeForThief(fromMugging)
		switch res {
		case deque.PopDiscard:
			// Empty or dead deque that lingered in the queue: drop it
			// and keep looking (multiple queue accesses per steal are
			// the accepted price of the simple queue design). If the
			// drop cleared the deque's last queue reference, recycle
			// it.
			p.rt.trace.Add(trace.Drop, w.id, level)
			p.rt.freeDeque(d)
			continue
		case deque.PopMug:
			if pushBack {
				p.enqueue(d, false, p.homeFor(w))
			}
			if invariant.Enabled {
				// The deque is claimed (Active, owned by w) but its parked
				// task has not been resumed; the abandoning worker may
				// still be between its enqueue and its park.
				perturb.At(perturb.Mug)
			}
			w.clock.CountMug()
			p.rt.trace.Add(trace.Mug, w.id, level)
			return frame.(*node), d, true
		case deque.PopSteal:
			if pushBack {
				p.enqueue(d, false, p.homeFor(w))
			}
			w.clock.CountSteal()
			p.rt.trace.Add(trace.Steal, w.id, level)
			return frame.(*node), p.rt.newDeque(level), true
		}
	}
}
