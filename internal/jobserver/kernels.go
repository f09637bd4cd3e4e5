// Package jobserver reimplements the job-server benchmark of the
// paper's Section 5: a server performing shortest-job-first
// scheduling, where shorter job classes get higher priorities. The
// four job classes, highest to lowest priority:
//
//	mm   (level 0) — blocked matrix multiplication
//	fib  (level 1) — naive Fibonacci spawn tree
//	sort (level 2) — parallel mergesort
//	sw   (level 3) — Smith-Waterman sequence alignment (wavefront)
//
// Unlike Memcached and the email server, every request is a genuinely
// parallel task-parallel job ("the job server contains more
// parallelism — each job instance created by the server is a
// traditional task-parallel job"), which exercises intra-job
// spawn/sync under priority scheduling.
package jobserver

import (
	"icilk"
)

// Priority levels (SJF order).
const (
	LevelMM   = 0
	LevelFib  = 1
	LevelSort = 2
	LevelSW   = 3
	// Levels is the number of priority levels the server needs.
	Levels = 4
)

// OpNames lists the job classes in priority order (Figure 4 labels).
var OpNames = []string{"mm", "fib", "sort", "sw"}

// ---- mm: blocked matrix multiplication -----------------------------

// mmTile is the output-tile edge (and k-blocking factor), sized like
// the old recursion's base case so the microkernel's cache behavior is
// unchanged.
const mmTile = 16

// MM multiplies two n×n matrices with a data-parallel loop over the
// output tile grid: every mmTile×mmTile tile of C is independent, so
// one For covers the whole product with no cross-iteration syncs —
// where the old 2×2 recursion needed a sync barrier between its two
// accumulation rounds, halving the available parallelism near the
// root. Within a tile, k advances in ascending blocks, the same
// per-element accumulation order as the recursion, so results are
// bitwise identical.
func MM(t *icilk.Task, a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	mmInto(t, newMMScratch(a, b, c, n))
	return c
}

// mmInto is MM over caller-owned scratch, with s.c cleared first: the
// tiles accumulate.
func mmInto(t *icilk.Task, s *mmScratch) {
	clear(s.c)
	icilk.For(t, 0, s.nt*s.nt, 1, s.tileFn)
}

// tile is mm's loop body in record form: s.tileFn binds it once per
// scratch, where a closure over the request's matrices would be a heap
// object per request.
func (s *mmScratch) tile(i int) {
	mmTileCompute(s.a, s.b, s.c, s.n, i/s.nt, i%s.nt)
}

// mmTileCompute accumulates output tile (ti, tj): the full dot product
// of A's block row ti with B's block column tj.
func mmTileCompute(a, b, c []float64, n, ti, tj int) {
	i0, i1 := ti*mmTile, (ti+1)*mmTile
	j0, j1 := tj*mmTile, (tj+1)*mmTile
	if i1 > n {
		i1 = n
	}
	if j1 > n {
		j1 = n
	}
	for k0 := 0; k0 < n; k0 += mmTile {
		k1 := k0 + mmTile
		if k1 > n {
			k1 = n
		}
		for i := i0; i < i1; i++ {
			row := i*n + j0
			for k := k0; k < k1; k++ {
				av := a[i*n+k]
				brow := k*n + j0
				for j := 0; j < j1-j0; j++ {
					c[row+j] += av * b[brow+j]
				}
			}
		}
	}
}

// ---- fib: spawn tree ------------------------------------------------

const fibBase = 12

// Fib computes Fibonacci numbers with a spawn tree, sequential below
// fibBase.
func Fib(t *icilk.Task, n int) int64 {
	if n < fibBase {
		return fibSeq(n)
	}
	f := icilk.TakeFrame[fibFrame](t)
	f.n = n - 1
	t.SpawnFrame(f)
	b := Fib(t, n-2)
	t.Sync()
	a := f.a
	icilk.ParkFrame(t, f)
	return a + b
}

// fibFrame is a Fib fork as a record: the spawned call's argument and
// the slot its result comes back in. It comes from the task's context
// and goes back after the sync, so the fork allocates nothing.
type fibFrame struct {
	n int
	a int64
}

func (f *fibFrame) RunFrame(t *icilk.Task) { f.a = Fib(t, f.n) }

func fibSeq(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

// ---- sort: parallel mergesort ---------------------------------------

// sortBase is the leaf size. A leaf is radix-sorted (radixSort: linear,
// no data-dependent branch, no allocation) with no scheduling point
// inside, so it bounds the job's promptness window: ~18 µs on random
// input on a 2-vCPU Xeon guest, under pdqsort's 25–30 µs at 512. A
// linear leaf costs the same per element at any size, so halving it
// only adds a merge level: 512 halves the window for 16 % more sort
// time. EXPERIMENTS.md, "Radix leaves and a branch-free merge", has
// the cutoff check.
const sortBase = 1024

// mergeBase is the sequential cutoff of the parallel merge: below it
// the binary-search splitting costs more than it recovers. The
// sequential merge at this size is the job's other promptness window,
// ~8 µs.
const mergeBase = 2048

// Sort sorts xs in place with parallel mergesort: the recursion is a
// parallel pair in parlaylib's par_do shape (the pair joins in its own
// called frame, so one half's steal never serializes the other's
// sub-syncs) and the merge itself is parallel — the old sequential
// merge made the final combine a serial O(n) bottleneck on the
// critical path.
func Sort(t *icilk.Task, xs []int64) {
	mergesort(t, xs, make([]int64, len(xs)))
}

func mergesort(t *icilk.Task, xs, tmp []int64) {
	if len(xs) <= sortBase {
		radixSort(xs, tmp)
		return
	}
	mid := len(xs) / 2
	t.Call(func(ft *icilk.Task) {
		r := icilk.TakeFrame[sortFrame](ft)
		r.xs, r.tmp = xs[mid:], tmp[mid:]
		ft.SpawnFrame(r)
		ft.Call(func(lt *icilk.Task) { mergesort(lt, xs[:mid], tmp[:mid]) })
		ft.Sync()
		icilk.ParkFrame(ft, r)
	})
	copy(tmp, xs)
	parMerge(t, tmp[:mid], tmp[mid:], xs)
}

// sortFrame and mergeFrame are the spawned right halves of mergesort
// and parMerge as records, so a fork allocates no closure.
type (
	sortFrame  struct{ xs, tmp []int64 }
	mergeFrame struct{ a, b, out []int64 }
)

func (r *sortFrame) RunFrame(t *icilk.Task)  { mergesort(t, r.xs, r.tmp) }
func (r *mergeFrame) RunFrame(t *icilk.Task) { parMerge(t, r.a, r.b, r.out) }

// parMerge merges sorted runs a and b into out (len(out) =
// len(a)+len(b)) by divide and conquer: split the larger run at its
// midpoint, binary-search the pivot's rank in the smaller run, and
// merge the two independent sub-pairs as a parallel pair. Span drops
// from O(n) to O(log² n).
func parMerge(t *icilk.Task, a, b, out []int64) {
	if len(a) < len(b) {
		// Swapping is value-safe for int64 runs: ties between the runs
		// produce identical elements either way.
		a, b = b, a
	}
	if len(a)+len(b) <= mergeBase || len(b) == 0 {
		mergeRuns(a, b, out)
		return
	}
	ma := len(a) / 2
	// Lower bound of the pivot in b: everything left of it is < pivot,
	// everything right of it ≥ pivot, so the sub-merges partition the
	// value space and out is globally sorted.
	mb := lowerBound(b, a[ma])
	t.Call(func(ft *icilk.Task) {
		r := icilk.TakeFrame[mergeFrame](ft)
		r.a, r.b, r.out = a[ma:], b[mb:], out[ma+mb:]
		ft.SpawnFrame(r)
		ft.Call(func(lt *icilk.Task) { parMerge(lt, a[:ma], b[:mb], out[:ma+mb]) })
		ft.Sync()
		icilk.ParkFrame(ft, r)
	})
}

// lowerBound returns the first index i with xs[i] >= v (len(xs) if
// none).
func lowerBound(xs []int64, v int64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// radixSort sorts xs by LSD radix sort on 8-bit digits, scattering
// back and forth between xs and tmp (len(tmp) >= len(xs)); after the
// eighth pass, an even number, the keys are back in xs. The sign bit
// is flipped in the key, so negative values order below positive ones.
// Every pass runs: the job's keys are uniform 63-bit, so no digit of a
// leaf is ever the same in every element. One histogram at a time
// keeps the frame small: the leaf runs on task stacks.
func radixSort(xs, tmp []int64) {
	src, dst := xs, tmp[:len(xs)]
	for shift := 0; shift < 64; shift += 8 {
		var pos [256]int32
		for _, x := range src {
			pos[radixDigit(x, shift)]++
		}
		var sum int32
		for d := range pos { // by index: ranging over the array copies it
			pos[d], sum = sum, sum+pos[d]
		}
		for _, x := range src {
			d := radixDigit(x, shift)
			dst[pos[d]] = x
			pos[d]++
		}
		src, dst = dst, src
	}
}

// radixDigit is the digit of x at shift, with the sign bit flipped.
func radixDigit(x int64, shift int) byte {
	return byte((uint64(x) ^ 1<<63) >> shift)
}

// mergeRuns is the sequential base merge of two sorted runs into out.
// Which run advances is computed, not branched on, so the loop compiles
// to conditional moves and random keys cost no mispredictions.
func mergeRuns(a, b, out []int64) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		out[i+j] = min(x, y)
		var fromA int
		if x <= y {
			fromA = 1
		}
		i += fromA
		j += 1 - fromA
	}
	copy(out[i+j:], a[i:])
	copy(out[len(a)+j:], b[j:])
}

// ---- sw: Smith-Waterman wavefront -----------------------------------

// swTile is the blocking factor of the DP matrix.
const swTile = 32

// SW computes the Smith-Waterman local-alignment score of byte
// sequences p and q with unit match/mismatch/gap scores, using
// anti-diagonal wavefront parallelism over tiles: all tiles on an
// anti-diagonal are independent and spawned together; diagonals are
// separated by syncs.
func SW(t *icilk.Task, p, q []byte) int {
	return swInto(t, newSWScratch(p, q))
}

// swInto is SW over caller-owned scratch. s.h needs no clearing
// between uses: its border row and column are zero from allocation and
// never written, and every interior cell is written, by the tile that
// owns it, before a later cell of that tile or a tile of a later
// diagonal reads it.
func swInto(t *icilk.Task, s *swScratch) int {
	tilesI := (len(s.p) + swTile - 1) / swTile
	tilesJ := (len(s.q) + swTile - 1) / swTile
	var best int32
	for diag := 0; diag < tilesI+tilesJ-1; diag++ {
		lo := max(diag-tilesJ+1, 0)
		hi := min(diag, tilesI-1)
		for ti := lo; ti < hi; ti++ {
			f := &s.tiles[ti-lo]
			f.s, f.ti, f.tj = s, ti, diag-ti
			t.SpawnFrame(f)
		}
		best = max(best, s.tile(hi, diag-hi))
		t.Sync()
		for i := range s.tiles[:hi-lo] {
			best = max(best, s.tiles[i].best)
		}
	}
	return int(best)
}

// swTileFrame is one spawned tile in record form: where it is and the
// slot its max comes back in. The frames of a diagonal live in the
// scratch and are reused by the next, so a fork allocates nothing.
type swTileFrame struct {
	s      *swScratch
	ti, tj int
	best   int32
}

func (f *swTileFrame) RunFrame(*icilk.Task) { f.best = f.s.tile(f.ti, f.tj) }

// tile fills one tile of the DP matrix and returns its max.
func (s *swScratch) tile(ti, tj int) int32 {
	p, q, h, stride := s.p, s.q, s.h, len(s.q)+1
	iStart, jStart := ti*swTile+1, tj*swTile+1
	iEnd, jEnd := min(iStart+swTile, len(p)+1), min(jStart+swTile, len(q)+1)
	var best int32
	for i := iStart; i < iEnd; i++ {
		pi := p[i-1]
		row := i * stride
		prow := (i - 1) * stride
		for j := jStart; j < jEnd; j++ {
			var match int32 = -1
			if pi == q[j-1] {
				match = 1
			}
			v := h[prow+j-1] + match
			if up := h[prow+j] - 1; up > v {
				v = up
			}
			if left := h[row+j-1] - 1; left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			h[row+j] = v
			if v > best {
				best = v
			}
		}
	}
	return best
}

// SWSeq is the sequential reference implementation (tests).
func SWSeq(p, q []byte) int {
	m, n := len(p), len(q)
	h := make([]int32, (m+1)*(n+1))
	stride := n + 1
	var best int32
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			var match int32 = -1
			if p[i-1] == q[j-1] {
				match = 1
			}
			v := h[(i-1)*stride+j-1] + match
			if up := h[(i-1)*stride+j] - 1; up > v {
				v = up
			}
			if left := h[i*stride+j-1] - 1; left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			h[i*stride+j] = v
			if v > best {
				best = v
			}
		}
	}
	return int(best)
}
