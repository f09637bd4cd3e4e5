package icilk

// Data-parallel helpers built on Spawn/Sync/Call — the convenience
// layer a Cilk programmer gets from cilk_for and parlaylib's
// parallel_for — with lazy, demand-driven splitting (DESIGN.md,
// "Data-parallel cost model"): a loop frame walks its range left to
// right in grain-sized sequential chunks, and between two chunks it
// reaches a scheduling point (Task.LoopPoint) that also asks whether
// the worker's deque still holds a frame a thief could take. Only when
// it does not — a thief took the last one, or the loop has just
// started — does the frame split, so a loop costs spawns in proportion
// to steals·log(n/grain), not n/grain, and a loop nobody steals from
// runs at sequential speed after its first log(n/grain) splits.
//
// Three structural rules, all load-bearing:
//
//  1. Frame-scoped joins. Every split piece runs in its own task
//     frame — the spawned left piece in its child's frame, Reduce's
//     continued right piece in a called frame (Task.Call) — so a Sync
//     joins exactly that frame's own spawns and a stalled subtree never
//     blocks an independent subtree's combine.
//
//  2. Asymmetric split. A range splits at lo + 9(n+1)/16 (parlaylib's
//     rule): the worker dives into the slightly larger left piece and
//     the stealable continuation carries the smaller right piece. While
//     that continuation sits on the deque, the left piece — and any
//     loop nested inside it — sees a fed deque and does not split; once
//     a thief takes it, the next chunk boundary splits again.
//
//  3. The grain is the promptness window. It is the largest run
//     executed without a scheduling point, whether or not anything is
//     spawned: every chunk boundary checks the priority bitfield, and
//     at least every chunkYieldBudget it also yields the processor,
//     standing in for the goroutine parks an eager spawn tree used to
//     provide.

import (
	"time"

	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
)

// AutoGrain, passed as the grain argument, selects the auto-tuned
// grain mode: a leading prefix of the range runs sequentially in
// doubling blocks until one block's measured duration reaches the
// amortization target (grainTargetMult × the runtime's calibrated
// spawn+sync cost), and the remainder splits with the grain derived
// from that probe — parlaylib's get_granularity, calibrated against
// this runtime instead of a hard-coded tick. Bodies with wildly
// non-uniform per-iteration cost should pass an explicit grain.
const AutoGrain = -1

const (
	// defaultSpawnCostNS stands in for the calibrated spawn+sync cost
	// on a runtime where no auto-grain loop has measured it yet (only
	// the chunk-boundary yield cadence reads it; explicit-grain loops
	// never force a calibration).
	defaultSpawnCostNS = 1400
	// grainTargetMult sets the auto-grain amortization target: a
	// sequential leaf should cost at least this many spawns' worth of
	// work, bounding spawn overhead near 1/grainTargetMult while
	// keeping leaves — the uninterruptible windows between promptness
	// checks — in the tens of microseconds.
	grainTargetMult = 8
	// defaultGrainDiv is parlaylib's static cutoff denominator:
	// default grain = n/(128·workers), i.e. ~128 chunks per worker for
	// load balance under non-uniform bodies.
	defaultGrainDiv = 128
	// minDefaultGrain floors the static default grain so a small range
	// on a many-worker runtime never degenerates to one-iteration
	// chunks (a scheduling point per loop iteration is the pathology the
	// floor exists for). Explicit grains are honored as given.
	minDefaultGrain = 8
	// spawnCalReps is the spawn+sync round-trip sample count of the
	// lazy calibration; the clamps below keep a perturbed or preempted
	// calibration from producing an absurd target.
	spawnCalReps   = 64
	minSpawnCostNS = 100
	maxSpawnCostNS = 100_000
)

// spawnCostNS returns the runtime's calibrated spawn+sync cost,
// measuring it on first use: spawnCalReps empty spawn/sync round
// trips, timed inside a private called frame so the calibration never
// joins (or is joined by) the caller's own children. First writer
// wins, so every auto-grain loop on one runtime agrees on the target.
func spawnCostNS(t *Task) int64 {
	rt := t.Runtime()
	if ns := rt.SpawnCostNS(); ns > 0 {
		return ns
	}
	t.Call(func(ft *Task) {
		start := time.Now()
		for i := 0; i < spawnCalReps; i++ {
			ft.Spawn(func(*Task) {})
			ft.Sync()
		}
		ns := int64(time.Since(start)) / spawnCalReps
		if ns < minSpawnCostNS {
			ns = minSpawnCostNS
		}
		if ns > maxSpawnCostNS {
			ns = maxSpawnCostNS
		}
		rt.SetSpawnCostNS(ns)
	})
	return rt.SpawnCostNS()
}

// resolveGrain maps a non-negative grain argument to the split
// cutoff for a range of n iterations. Explicit grains are clamped to
// the range; the default (0) is the parlaylib cutoff n/(128·workers),
// floored at minDefaultGrain and capped at n, so the cutoff never
// exceeds the range yet never falls to one-iteration spawns.
func resolveGrain(t *Task, n, grain int) int {
	if grain <= 0 {
		grain = n / (defaultGrainDiv * t.Runtime().Workers())
		if grain < minDefaultGrain {
			grain = minDefaultGrain
		}
	}
	if grain > n {
		grain = n
	}
	return grain
}

// splitMid returns the asymmetric split point of [lo, hi): parlaylib's
// lo + 9(n+1)/16. For every n ≥ 2 it satisfies lo < mid < hi.
func splitMid(lo, hi int) int {
	return lo + 9*(hi-lo+1)/16
}

// chunkPacer spaces a loop frame's processor yields: every chunk
// boundary is a scheduling point, but the runtime.Gosched half of it
// is paid at most once per budget — grainTargetMult spawn+sync costs,
// the same amortization target auto-grain sizes leaves against — so a
// loop of microsecond chunks does not spend its time in the Go
// scheduler while a loop of long chunks yields at every boundary.
type chunkPacer struct {
	next   time.Duration // on the clock of time.Since(pacerEpoch)
	budget time.Duration
}

// pacerEpoch anchors the pacers' clock: time.Since reads only the
// monotonic clock, about half the cost of time.Now.
var pacerEpoch = time.Now()

func newChunkPacer(t *Task) chunkPacer {
	cost := t.Runtime().SpawnCostNS()
	if cost == 0 {
		cost = defaultSpawnCostNS
	}
	budget := time.Duration(grainTargetMult * cost)
	return chunkPacer{next: time.Since(pacerEpoch) + budget, budget: budget}
}

// split is the chunk boundary: Task.LoopPoint with the yield paced,
// reporting whether the frame should split [lo, hi) to feed a thief.
func (p *chunkPacer) split(t *Task, lo, hi, grain int) bool {
	now := time.Since(pacerEpoch)
	yield := now >= p.next
	if yield {
		p.next = now + p.budget
	}
	if !t.LoopPoint(yield) || hi-lo <= grain {
		return false
	}
	if invariant.Enabled {
		// The window between deciding to split and parking the
		// continuation is where a thief takes the right piece.
		perturb.At(perturb.LoopSplit)
	}
	return true
}

// For executes body(i) for every i in [lo, hi) exactly once, with
// fork-join parallelism. grain is the largest chunk executed between
// two scheduling points: positive values are used as given (clamped to
// the range), 0 picks the parlaylib default cutoff, and AutoGrain
// calibrates against the measured spawn cost. The loop runs in its own
// called frame, so it never joins children the caller spawned before
// it.
func For(t *Task, lo, hi, grain int, body func(i int)) {
	if hi <= lo {
		return
	}
	if grain < 0 {
		done, g := probe(t, lo, hi, grainTargetMult*spawnCostNS(t), body)
		lo += done
		if lo >= hi {
			return
		}
		grain = g
	} else {
		grain = resolveGrain(t, hi-lo, grain)
	}
	lo2, hi2, g := lo, hi, grain
	t.Call(func(ft *Task) { forRec(ft, lo2, hi2, g, body) })
}

// forSplit is a For split's spawned left piece as a record
// (sched.Frame): what forRec needs to run it, and the link that chains
// a frame's outstanding splits until its Sync.
type forSplit struct {
	lo, hi, grain int
	body          func(i int)
	next          *forSplit
}

func (s *forSplit) RunFrame(t *Task) { forRec(t, s.lo, s.hi, s.grain, s.body) }

// forRec is one loop frame: it runs [lo, hi) in grain-sized chunks and,
// at a chunk boundary that finds the deque with nothing for a thief,
// spawns the left piece of the remainder and carries on with the right
// piece as the stealable continuation. The frame's Sync sees only the
// frame's own spawns — a called frame boundary above every forRec keeps
// enclosing loops and user spawns out of its join scope. The split
// records come from the context and go back to it after the Sync.
func forRec(t *Task, lo, hi, grain int, body func(i int)) {
	pace := newChunkPacer(t)
	var splits *forSplit
	for lo < hi {
		if pace.split(t, lo, hi, grain) {
			mid := splitMid(lo, hi)
			s := TakeFrame[forSplit](t)
			*s = forSplit{lo: lo, hi: mid, grain: grain, body: body, next: splits}
			splits = s
			t.SpawnFrame(s)
			lo = mid
			continue
		}
		end := min(lo+grain, hi)
		for ; lo < end; lo++ {
			body(lo)
		}
	}
	t.Sync()
	for s := splits; s != nil; {
		next := s.next
		ParkFrame(t, s)
		s = next
	}
}

// probe is the auto-grain calibration pass of For and Reduce: it runs
// step over leading iterations sequentially in doubling blocks until
// one block's measured duration reaches targetNS (or the range is
// exhausted), then derives the grain for the remainder as max(probed
// count, remaining/(128·workers)) — parlaylib's get_granularity rule
// with the runtime-calibrated target. Every probed iteration counts as
// done: step runs exactly once per index.
func probe(t *Task, lo, hi int, targetNS int64, step func(i int)) (done, grain int) {
	n := hi - lo
	sz := 1
	for done < n {
		if sz > n-done {
			sz = n - done
		}
		start := time.Now()
		for i := lo + done; i < lo+done+sz; i++ {
			step(i)
		}
		done += sz
		sz *= 2
		if int64(time.Since(start)) >= targetNS {
			break
		}
	}
	return done, probeGrain(t, n-done, done)
}

// probeGrain combines the probe result with the static load-balance
// term: the probed count amortizes the spawn cost, the
// remaining/(128·workers) term keeps ~128 chunks per worker on large
// ranges, and the clamps keep the grain inside [1, remaining].
func probeGrain(t *Task, remaining, done int) int {
	g := remaining / (defaultGrainDiv * t.Runtime().Workers())
	if done > g {
		g = done
	}
	if g < 1 {
		g = 1
	}
	if remaining > 0 && g > remaining {
		g = remaining
	}
	return g
}

// Map applies fn to every element of in, in parallel, returning the
// results in order. grain follows For's rules.
func Map[In, Out any](t *Task, in []In, grain int, fn func(In) Out) []Out {
	out := make([]Out, len(in))
	For(t, 0, len(in), grain, func(i int) {
		out[i] = fn(in[i])
	})
	return out
}

// Reduce combines fn over [lo, hi) with a parallel tree reduction:
// result = zero ⊕ leaf(lo) ⊕ … ⊕ leaf(hi-1), where ⊕ is combine.
// combine must be associative and zero its identity; the combine
// order always respects index order, so non-commutative combines are
// fine. grain follows For's rules.
func Reduce[T any](t *Task, lo, hi, grain int, zero T, leaf func(i int) T, combine func(a, b T) T) T {
	if hi <= lo {
		return zero
	}
	probed := false
	acc := zero
	if grain < 0 {
		var done int
		done, grain = probe(t, lo, hi, grainTargetMult*spawnCostNS(t), func(i int) { acc = combine(acc, leaf(i)) })
		probed = true
		lo += done
		if lo >= hi {
			return acc
		}
	} else {
		grain = resolveGrain(t, hi-lo, grain)
	}
	var rest T
	lo2, hi2, g := lo, hi, grain
	t.Call(func(ft *Task) { rest = reduceRec(ft, lo2, hi2, g, zero, leaf, combine) })
	if probed {
		return combine(acc, rest)
	}
	return rest
}

// reduceSplit is a Reduce split's spawned left piece as a record
// (sched.Frame): what reduceRec needs to fold it and the slot its
// result comes back in.
type reduceSplit[T any] struct {
	lo, hi, grain int
	zero          T
	leaf          func(i int) T
	combine       func(a, b T) T
	left          T
}

func (s *reduceSplit[T]) RunFrame(t *Task) {
	s.left = reduceRec(t, s.lo, s.hi, s.grain, s.zero, s.leaf, s.combine)
}

// reduceRec is one reduction frame: it folds [lo, hi) in grain-sized
// chunks and, at a chunk boundary that finds the deque with nothing for
// a thief, hands the whole remainder to a split — left piece spawned
// (its own child frame), right piece in a called frame, this frame's
// Sync joining exactly its one spawn — and combines prefix, left and
// right in index order. The split record comes from the context and
// goes back to it once its result is read.
func reduceRec[T any](t *Task, lo, hi, grain int, zero T, leaf func(i int) T, combine func(a, b T) T) T {
	pace := newChunkPacer(t)
	acc := zero
	for lo < hi {
		if pace.split(t, lo, hi, grain) {
			mid := splitMid(lo, hi)
			s := TakeFrame[reduceSplit[T]](t)
			*s = reduceSplit[T]{lo: lo, hi: mid, grain: grain, zero: zero, leaf: leaf, combine: combine}
			var right T
			t.SpawnFrame(s)
			t.Call(func(ft *Task) { right = reduceRec(ft, mid, hi, grain, zero, leaf, combine) })
			t.Sync()
			left := s.left
			ParkFrame(t, s)
			return combine(acc, combine(left, right))
		}
		end := min(lo+grain, hi)
		for ; lo < end; lo++ {
			acc = combine(acc, leaf(lo))
		}
	}
	return acc
}

// Scan computes the exclusive prefix combination of in: out[i] =
// zero ⊕ in[0] ⊕ … ⊕ in[i-1], returning out and the total
// combination. combine must be associative and zero its identity.
// Two parallel passes over grain-sized blocks (block reduce, then
// block rewrite under a sequentially scanned spine) — the classic
// work-efficient scan. grain > 0 sets the block size; 0 and AutoGrain
// both pick the static default (the timed probe does not fit the
// two-pass structure).
func Scan[T any](t *Task, in []T, grain int, zero T, combine func(a, b T) T) ([]T, T) {
	n := len(in)
	out := make([]T, n)
	if n == 0 {
		return out, zero
	}
	if grain < 0 {
		grain = 0
	}
	b := resolveGrain(t, n, grain)
	nb := (n + b - 1) / b
	sums := make([]T, nb)
	For(t, 0, nb, 1, func(bi int) {
		lo, hi := bi*b, (bi+1)*b
		if hi > n {
			hi = n
		}
		acc := zero
		for i := lo; i < hi; i++ {
			acc = combine(acc, in[i])
		}
		sums[bi] = acc
	})
	// Sequential spine: exclusive scan of the nb ≈ n/grain block sums.
	acc := zero
	for bi := range sums {
		s := sums[bi]
		sums[bi] = acc
		acc = combine(acc, s)
	}
	For(t, 0, nb, 1, func(bi int) {
		lo, hi := bi*b, (bi+1)*b
		if hi > n {
			hi = n
		}
		p := sums[bi]
		for i := lo; i < hi; i++ {
			out[i] = p
			p = combine(p, in[i])
		}
	})
	return out, acc
}
