package jobserver

import (
	"runtime"
	"slices"
	"testing"

	"icilk"
)

// BenchmarkClasses times one job of each class, submitted and waited
// for alone on an otherwise idle runtime with a worker per CPU, at the
// pinned benchmark's sizes: what the jobserver.*_us probes of
// benchmark/probes.go time, as a mean in us/job where they take a
// median.
func BenchmarkClasses(b *testing.B) {
	rt, err := icilk.New(icilk.Config{Workers: runtime.NumCPU(), Levels: Levels})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	srv, err := New(rt, benchConfig)
	if err != nil {
		b.Fatal(err)
	}
	for class, name := range OpNames {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				srv.Do(class, int64(i%64)).Wait()
			}
			b.ReportMetric(float64(b.Elapsed())/1e3/float64(b.N), "us/job")
		})
	}
}

// BenchmarkSortKernels times sort's two sequential runs, the windows in
// which a level-0 arrival waits on that worker: a leaf of sortBase
// elements, and the base merge of two sorted runs into mergeBase. Each
// op takes the next of 256 random inputs and copies it in: re-sorting
// one input lets the branch predictor learn it, and pdqsort, the leaf
// before radix and kept here as the reference, then reads a quarter of
// its cost.
func BenchmarkSortKernels(b *testing.B) {
	const inputs = 256
	leaves, merges := make([][]int64, inputs), make([][]int64, inputs)
	for i := range leaves {
		leaves[i] = randomInts(sortBase, uint64(i))
		merges[i] = randomInts(mergeBase, uint64(inputs+i))
		slices.Sort(merges[i][:mergeBase/2])
		slices.Sort(merges[i][mergeBase/2:])
	}
	xs, tmp := make([]int64, mergeBase), make([]int64, mergeBase)
	leaf := func(name string, sort func(xs []int64)) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(xs, leaves[i%inputs])
				sort(xs[:sortBase])
			}
		})
	}
	leaf("leaf", func(xs []int64) { radixSort(xs, tmp) })
	leaf("leaf-pdqsort", slices.Sort[[]int64])
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := merges[i%inputs]
			mergeRuns(in[:mergeBase/2], in[mergeBase/2:], xs)
		}
	})
}
