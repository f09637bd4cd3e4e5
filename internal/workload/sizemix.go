package workload

import (
	"fmt"
	"time"

	"icilk"
)

// Size-dependent operation classes, each with a stable calibrated
// service demand. The canonical mix is bimodal per priority level: a
// dominant small class (cheap, latency-critical — a GET of a small
// value) and a minority large class an order of magnitude or two
// costlier (a range scan, a large SET). Under overload the two respond
// very differently to a deadline: the large class is doomed as soon as
// a queue forms, while the small class still fits.

// SizeClass is one operation class of a size-dependent workload.
type SizeClass struct {
	// Name labels the class in results ("small-L0", "large-L1", ...).
	Name string
	// Level is the class's priority level.
	Level int
	// Work is the class's calibrated sequential service demand.
	Work time.Duration
	// Weight is the class's share of the arrival stream.
	Weight float64
}

// BimodalMix builds the canonical bimodal value-size mix over the
// given number of priority levels: per level, a small class with
// weight (1-largeShare) and smallWork service demand, and a large
// class with weight largeShare and largeWork demand. Total weight per level is equal, so
// each level sees the same arrival rate. Classes are ordered
// small-L0, large-L0, small-L1, ... — index 0 is the dominant
// top-priority class, the goodput headline of overload benchmarks.
func BimodalMix(levels int, smallWork, largeWork time.Duration, largeShare float64) []SizeClass {
	if levels <= 0 || largeShare < 0 || largeShare > 1 {
		panic("workload: bad bimodal mix parameters")
	}
	cs := make([]SizeClass, 0, 2*levels)
	for l := 0; l < levels; l++ {
		cs = append(cs,
			SizeClass{
				Name:   fmt.Sprintf("small-L%d", l),
				Level:  l,
				Work:   smallWork,
				Weight: 1 - largeShare,
			},
			SizeClass{
				Name:   fmt.Sprintf("large-L%d", l),
				Level:  l,
				Work:   largeWork,
				Weight: largeShare,
			})
	}
	return cs
}

// ClassNames extracts the mix's class names in order.
func ClassNames(cs []SizeClass) []string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// ClassWeights extracts the mix's arrival weights in order.
func ClassWeights(cs []SizeClass) []float64 {
	ws := make([]float64, len(cs))
	for i, c := range cs {
		ws[i] = c.Weight
	}
	return ws
}

// spinSink defeats dead-code elimination of the spin loop.
var spinSink float64

// SpinService burns CPU for approximately d, taking a scheduling
// point between short bursts so the work stays promptly abandonable
// and deadline-cancellable; it returns early once the task is
// cancelled. This is the service body of synthetic size-class
// servers: wall-clock-calibrated, so a class's measured service time
// is stable across machines.
func SpinService(t *icilk.Task, d time.Duration) {
	end := time.Now().Add(d)
	x := 1.1
	for time.Now().Before(end) {
		for i := 0; i < 5000; i++ {
			x += 1.0 / x
		}
		if t.Err() != nil {
			break
		}
		t.Yield()
	}
	spinSink = x
}
