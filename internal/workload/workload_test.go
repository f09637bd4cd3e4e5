package workload

import (
	"sync/atomic"
	"testing"
	"time"

	"icilk"
	"icilk/internal/stats"
)

func TestRunOpenLoopDispatchesMix(t *testing.T) {
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var counts [2]atomic.Int64
	res := RunOpenLoop(OpenLoopConfig{
		RPS:        2000,
		Duration:   200 * time.Millisecond,
		Mix:        []float64{3, 1},
		ClassNames: []string{"hot", "cold"},
		Seed:       7,
		Spread:     4,
	}, func(class, user int, seq int64) *icilk.Future {
		if user < 0 || user >= 4 {
			t.Errorf("user %d out of spread", user)
		}
		counts[class].Add(1)
		return rt.Submit(class, func(*icilk.Task) any { return nil })
	})

	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	total := counts[0].Load() + counts[1].Load()
	if total != res.Sent {
		t.Fatalf("sent %d but dispatched %d", res.Sent, total)
	}
	// 3:1 mix within generous tolerance.
	ratio := float64(counts[0].Load()) / float64(total)
	if ratio < 0.55 || ratio > 0.9 {
		t.Fatalf("hot fraction = %.2f, want ~0.75", ratio)
	}
	if res.PerClass.Class("hot").Count()+res.PerClass.Class("cold").Count() != int(res.Sent) {
		t.Fatal("latency records missing")
	}
	if res.All.Count() != int(res.Sent) {
		t.Fatal("aggregate recorder incomplete")
	}
}

func TestRunOpenLoopDeterministicSequence(t *testing.T) {
	rt, err := icilk.New(icilk.Config{Workers: 1, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	collect := func() []int {
		var classes []int
		RunOpenLoop(OpenLoopConfig{
			RPS: 5000, Duration: 50 * time.Millisecond,
			Mix: []float64{1, 1, 1}, Seed: 42,
		}, func(class, user int, seq int64) *icilk.Future {
			classes = append(classes, class)
			return rt.Submit(0, func(*icilk.Task) any { return nil })
		})
		return classes
	}
	a, b := collect(), collect()
	// Same seed: identical class sequence for the common prefix (the
	// counts can differ by timing, the choices cannot).
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		t.Fatal("no requests generated")
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("class sequence diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPercentileUnder(t *testing.T) {
	r := stats.NewRecorder(8)
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	if !PercentileUnder(95, 95*time.Millisecond)(r) {
		t.Fatal("p95=95ms should meet a 95ms limit")
	}
	if PercentileUnder(95, 94*time.Millisecond)(r) {
		t.Fatal("p95=95ms should fail a 94ms limit")
	}
	empty := stats.NewRecorder(0)
	if PercentileUnder(95, time.Hour)(empty) {
		t.Fatal("empty recorder should not pass QoS")
	}
}

func TestRunOpenLoopGoodputClassifies(t *testing.T) {
	rt, err := icilk.New(icilk.Config{
		Workers: 2,
		Levels:  2,
		Admission: &icilk.AdmissionConfig{
			QueueCap: 64,
			Timeout:  20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	adm := rt.Admission()

	// Class 0 completes instantly (good); class 1 spins past its
	// deadline (late). A blocked slot on level 0 forces some sheds.
	res := RunOpenLoopGoodput(OpenLoopConfig{
		RPS:      1500,
		Duration: 300 * time.Millisecond,
		Mix:      []float64{1, 1},
		Seed:     11,
	}, 10*time.Millisecond, func(class, user int, seq int64) (*icilk.Future, error) {
		return adm.Submit(class, func(t *icilk.Task) any {
			if class == 1 {
				deadline := time.Now().Add(15 * time.Millisecond)
				for time.Now().Before(deadline) {
					t.Yield()
				}
			}
			return nil
		})
	})

	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.PerClass[0].Good == 0 {
		t.Fatal("fast class recorded no good completions")
	}
	if res.PerClass[1].Late == 0 {
		t.Fatal("slow class recorded no late completions")
	}
	total := res.Total()
	if got := total.Good + total.Late + total.Shed; got > res.Sent {
		t.Fatalf("classified %d > sent %d", got, res.Sent)
	}
	if f := res.PerClass[0].GoodputFraction(); f <= res.PerClass[1].GoodputFraction() {
		t.Fatalf("fast class goodput %.2f not above slow class %.2f",
			f, res.PerClass[1].GoodputFraction())
	}
}

func TestFindMaxRPS(t *testing.T) {
	// Synthetic server: meets QoS up to 1000 RPS.
	run := func(rps float64) *stats.Recorder {
		r := stats.NewRecorder(1)
		if rps <= 1000 {
			r.Record(time.Millisecond)
		} else {
			r.Record(time.Second)
		}
		return r
	}
	qos := PercentileUnder(95, 10*time.Millisecond)
	got := FindMaxRPS(100, 4000, 20, qos, run)
	if got < 900 || got > 1000 {
		t.Fatalf("FindMaxRPS = %v, want ~1000", got)
	}
	// Floor failure.
	if got := FindMaxRPS(2000, 4000, 10, qos, run); got != 0 {
		t.Fatalf("floor-failing search returned %v", got)
	}
}

func TestFindMaxRPSMonotoneCurve(t *testing.T) {
	// Synthetic monotone latency curve: p95 grows linearly with load,
	// lat(rps) = rps microseconds. A 10ms limit puts the knee at
	// exactly 10000 RPS; the search must converge to it.
	run := func(rps float64) *stats.Recorder {
		r := stats.NewRecorder(1)
		r.Record(time.Duration(rps * float64(time.Microsecond)))
		return r
	}
	qos := PercentileUnder(95, 10*time.Millisecond)
	got := FindMaxRPS(100, 40000, 40, qos, run)
	if got < 9990 || got > 10000 {
		t.Fatalf("FindMaxRPS on monotone curve = %v, want ~10000", got)
	}
}
