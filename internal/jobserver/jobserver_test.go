package jobserver

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"icilk"
	"icilk/internal/xrand"
)

func newRT(t *testing.T, pol icilk.Scheduler) *icilk.Runtime {
	t.Helper()
	rt, err := icilk.New(icilk.Config{Workers: 4, Levels: Levels, Scheduler: pol,
		Adaptive: icilk.AdaptiveParams{Quantum: time.Millisecond, Delta: 0.5, Rho: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// randomMatrix, randomInts and randomSeq are the job bodies' inputs in
// fresh arrays.
func randomMatrix(n int, seed uint64) []float64 {
	m := make([]float64, n*n)
	fillMatrix(m, seed)
	return m
}

func randomInts(n int, seed uint64) []int64 {
	xs := make([]int64, n)
	fillInts(xs, seed)
	return xs
}

func randomSeq(n int, seed uint64) []byte {
	s := make([]byte, n)
	fillSeq(s, seed)
	return s
}

func TestMMMatchesSequential(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	const n = 32
	a, b := randomMatrix(n, 1), randomMatrix(n, 2)
	got := rt.Run(func(task *icilk.Task) any { return MM(task, a, b, n) }).([]float64)

	// Sequential reference.
	want := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				want[i*n+j] += a[i*n+k] * b[k*n+j]
			}
		}
	}
	for i := range want {
		d := got[i] - want[i]
		if d < -1e-9 || d > 1e-9 {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMMOddSizes covers matrix edges that do not divide the tile
// size, where the tile-grid loop's boundary clamps do the work the
// old power-of-two recursion never had to.
func TestMMOddSizes(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	for _, n := range []int{1, 8, 17, 40, 100} {
		a, b := randomMatrix(n, uint64(n)), randomMatrix(n, uint64(n+1))
		got := rt.Run(func(task *icilk.Task) any { return MM(task, a, b, n) }).([]float64)
		want := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				for j := 0; j < n; j++ {
					want[i*n+j] += a[i*n+k] * b[k*n+j]
				}
			}
		}
		for i := range want {
			d := got[i] - want[i]
			if d < -1e-9 || d > 1e-9 {
				t.Fatalf("n=%d: C[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestSortAdversarialInputs drives the parallel merge's pivot search
// through heavy ties and pre-ordered runs, where a wrong lower-bound
// split would misplace equal elements.
func TestSortAdversarialInputs(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	const n = 50000
	inputs := map[string]func(i int) int64{
		"sorted":   func(i int) int64 { return int64(i) },
		"reversed": func(i int) int64 { return int64(n - i) },
		"constant": func(int) int64 { return 7 },
		"twoVals":  func(i int) int64 { return int64(i & 1) },
	}
	for name, gen := range inputs {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = gen(i)
		}
		want := append([]int64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		rt.Run(func(task *icilk.Task) any { Sort(task, xs); return nil })
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("%s: xs[%d] = %d, want %d", name, i, xs[i], want[i])
			}
		}
	}
}

// TestSortAtCutoffs runs Sort at and around both cutoffs, where the
// recursion switches between a leaf, one fork over two leaves, and a
// sequential or split merge, on one worker and on four. The inputs past
// the ordered ones aim at the radix leaf: negative keys and the two
// extremes need the sign flip, few distinct values pile into few
// buckets, and a byte shared by every element scatters a whole pass
// into one bucket.
func TestSortAtCutoffs(t *testing.T) {
	sizes := []int{0, 1, 2, sortBase - 1, sortBase, sortBase + 1, 2*sortBase + 1, mergeBase - 1, mergeBase, mergeBase + 1}
	inputs := map[string]func(xs []int64){
		"random":   func(xs []int64) { fillInts(xs, uint64(len(xs))) },
		"sorted":   func(xs []int64) { fillInts(xs, uint64(len(xs))); slices.Sort(xs) },
		"reversed": func(xs []int64) { fillInts(xs, uint64(len(xs))); slices.Sort(xs); slices.Reverse(xs) },
		"allEqual": func(xs []int64) { clear(xs) },
		"negative": func(xs []int64) {
			fillInts(xs, uint64(len(xs)))
			for i := range xs {
				xs[i] = (xs[i] - 1<<62) >> (i % 40)
			}
		},
		"extremes": func(xs []int64) {
			fillInts(xs, uint64(len(xs)))
			vals := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0, -1}
			for i, x := range xs {
				xs[i] = vals[x%int64(len(vals))]
			}
		},
		"fewDistinct": func(xs []int64) {
			fillInts(xs, uint64(len(xs)))
			for i, x := range xs {
				xs[i] = (x%5 - 2) << 20
			}
		},
		"sharedByte": func(xs []int64) {
			fillInts(xs, uint64(len(xs)))
			for i := range xs {
				xs[i] = xs[i]&^(0xff<<24) | 0x5a<<24
			}
		},
	}
	for _, workers := range []int{1, 4} {
		rt, err := icilk.New(icilk.Config{Workers: workers, Levels: Levels})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		for name, fill := range inputs {
			for _, n := range sizes {
				xs := make([]int64, n)
				fill(xs)
				want := slices.Clone(xs)
				slices.Sort(want)
				rt.Run(func(task *icilk.Task) any { Sort(task, xs); return nil })
				if !slices.Equal(xs, want) {
					t.Errorf("%d workers, %s, n=%d: Sort differs from slices.Sort", workers, name, n)
				}
			}
		}
	}
}

// FuzzSort compares Sort with slices.Sort on arbitrary int64 keys, on
// one worker and on two. The keys are data's 8-byte words, repeated
// reps+1 times, so a short input still reaches the forks and the split
// merge; at most 4·mergeBase of them, so a grown input stays quick.
func FuzzSort(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 0x88}, uint8(200))
	seed := make([]byte, 8*(sortBase+3))
	for i := range seed {
		seed[i] = byte(i * 131 >> 3)
	}
	f.Add(seed, uint8(3))
	var rts []*icilk.Runtime
	for _, workers := range []int{1, 2} {
		rt, err := icilk.New(icilk.Config{Workers: workers, Levels: Levels})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(rt.Close)
		rts = append(rts, rt)
	}
	f.Fuzz(func(t *testing.T, data []byte, reps uint8) {
		words := len(data) / 8
		in := make([]int64, min(words*(int(reps)+1), 4*mergeBase))
		for i := range in {
			in[i] = int64(binary.LittleEndian.Uint64(data[i%words*8:]))
		}
		want := slices.Clone(in)
		slices.Sort(want)
		for w, rt := range rts {
			xs := slices.Clone(in)
			rt.Run(func(task *icilk.Task) any { Sort(task, xs); return nil })
			if !slices.Equal(xs, want) {
				t.Fatalf("%d workers, %d keys: Sort differs from slices.Sort", w+1, len(xs))
			}
		}
	})
}

func TestFibMatchesSequential(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	got := rt.Run(func(task *icilk.Task) any { return Fib(task, 20) }).(int64)
	if got != 6765 {
		t.Fatalf("fib(20) = %d", got)
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	xs := randomInts(10000, 3)
	want := append([]int64(nil), xs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	rt.Run(func(task *icilk.Task) any { Sort(task, xs); return nil })
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("xs[%d] = %d, want %d", i, xs[i], want[i])
		}
	}
}

func TestSWMatchesSequential(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	rng := xrand.New(9)
	for trial := 0; trial < 5; trial++ {
		n := 40 + rng.Intn(100)
		p, q := randomSeq(n, uint64(trial)), randomSeq(n+13, uint64(trial)+100)
		got := rt.Run(func(task *icilk.Task) any { return SW(task, p, q) }).(int)
		want := SWSeq(p, q)
		if got != want {
			t.Fatalf("SW = %d, want %d (trial %d, n %d)", got, want, trial, n)
		}
	}
}

func TestSWKnownAlignment(t *testing.T) {
	// Identical sequences: score = length (all matches).
	rt := newRT(t, icilk.Prompt)
	p := []byte("ACGTACGTACGT")
	got := rt.Run(func(task *icilk.Task) any { return SW(task, p, p) }).(int)
	if got != len(p) {
		t.Fatalf("self-alignment = %d, want %d", got, len(p))
	}
	// Completely disjoint alphabets: best local score is 0.
	q := []byte("TTTT")
	r := []byte("CCCC")
	got = rt.Run(func(task *icilk.Task) any { return SW(task, q, r) }).(int)
	if got != 0 {
		t.Fatalf("disjoint alignment = %d, want 0", got)
	}
}

func TestServerAllClassesAllPolicies(t *testing.T) {
	for _, pol := range []icilk.Scheduler{icilk.Prompt, icilk.Adaptive, icilk.AdaptiveAging, icilk.AdaptiveGreedy} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			rt := newRT(t, pol)
			srv, err := New(rt, Config{MMSize: 16, FibN: 16, SortSize: 2048, SWSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			futs := make([]*icilk.Future, 0, 8)
			for class := 0; class < 4; class++ {
				for rep := 0; rep < 2; rep++ {
					futs = append(futs, srv.Do(class, int64(class*10+rep)))
				}
			}
			for i, f := range futs {
				if v := f.Wait(); v == nil {
					t.Fatalf("job %d returned nil", i)
				}
			}
		})
	}
}

func TestJobDeterminism(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	srv, _ := New(rt, Config{MMSize: 16, FibN: 15, SortSize: 2048, SWSize: 64})
	a := srv.Do(2, 42).Wait().(int64)
	b := srv.Do(2, 42).Wait().(int64)
	if a != b {
		t.Fatalf("same-seed sort jobs returned %d and %d", a, b)
	}
}

func TestLevelsInsufficient(t *testing.T) {
	rt, err := icilk.New(icilk.Config{Workers: 1, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := New(rt, DefaultConfig()); err == nil {
		t.Fatal("New accepted a runtime with too few levels")
	}
}

// TestNewDefaultsEachSizeAlone: a zero size takes its own default
// whatever the other three are, and a negative one is refused.
func TestNewDefaultsEachSizeAlone(t *testing.T) {
	rt := newRT(t, icilk.Prompt)
	def := DefaultConfig()
	for _, tc := range []struct{ in, want Config }{
		{Config{}, def},
		{Config{FibN: 10, SortSize: 100, SWSize: 40}, Config{MMSize: def.MMSize, FibN: 10, SortSize: 100, SWSize: 40}},
		{Config{MMSize: 8}, Config{MMSize: 8, FibN: def.FibN, SortSize: def.SortSize, SWSize: def.SWSize}},
		{Config{MMSize: 8, FibN: 10, SWSize: 40}, Config{MMSize: 8, FibN: 10, SortSize: def.SortSize, SWSize: 40}},
	} {
		srv, err := New(rt, tc.in)
		if err != nil {
			t.Fatalf("New(%+v): %v", tc.in, err)
		}
		if srv.cfg != tc.want {
			t.Errorf("New(%+v) runs %+v, want %+v", tc.in, srv.cfg, tc.want)
		}
	}
	for _, bad := range []Config{{MMSize: -1}, {FibN: -1}, {MMSize: 8, SortSize: -5}, {MMSize: 8, SWSize: -64}} {
		if _, err := New(rt, bad); err == nil {
			t.Errorf("New accepted %+v", bad)
		}
	}
}
