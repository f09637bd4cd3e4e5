package jobserver

import (
	"runtime"
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
