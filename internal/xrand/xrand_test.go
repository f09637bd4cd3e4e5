package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/1000 times", same)
	}
}

// TestSeedMatchesNew covers the in-place form: seeding a zero Rand, or
// reseeding a used one, starts New's stream, and a generator that
// never leaves the stack costs no allocation.
func TestSeedMatchesNew(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		var r Rand
		r.Seed(seed)
		want := New(seed)
		for i := 0; i < 100; i++ {
			if got, w := r.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d: draw %d = %#x, New's stream has %#x", seed, i, got, w)
			}
		}
		r.Seed(seed)
		if got, w := r.Uint64(), New(seed).Uint64(); got != w {
			t.Fatalf("seed %d: first draw after reseeding = %#x, want %#x", seed, got, w)
		}
	}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		var r Rand
		r.Seed(sink)
		sink += r.Uint64() + uint64(r.Intn(4)) + uint64(r.Float64()*8)
	}); n != 0 {
		t.Fatalf("a stack Rand seeded and drawn from allocates %v times", n)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(7)
	b := a.Split()
	matches := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("split streams correlate: %d matches", matches)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(3)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / n
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("Exp(5) mean = %v", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(4)
	for _, lambda := range []float64{0.5, 3, 10, 100} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > lambda*0.05+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm variance = %v", variance)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(6)
	z := NewZipf(r, 1.2, 1000)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Uint64()
		if v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate and the head must carry substantial mass.
	if counts[0] < counts[10] {
		t.Fatalf("rank 0 (%d) not more popular than rank 10 (%d)", counts[0], counts[10])
	}
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	if float64(head)/n < 0.5 {
		t.Fatalf("top-10%% of keys got only %.2f of traffic; not Zipfian", float64(head)/n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	prop := func(seed uint64) bool {
		r := New(seed)
		p := r.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfValidation(t *testing.T) {
	r := New(7)
	for _, bad := range []struct {
		s float64
		n uint64
	}{{1.0, 10}, {0.5, 10}, {2.0, 0}} {
		func() {
			defer func() { recover() }()
			NewZipf(r, bad.s, bad.n)
			t.Fatalf("NewZipf(%v,%v) did not panic", bad.s, bad.n)
		}()
	}
}
