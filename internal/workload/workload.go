// Package workload drives the email and job servers with open-loop
// request streams and implements the QoS binary search used for
// Memcached. The paper modified the benchmark clients "to ensure that
// the amount of the work done in each run is the same"; the drivers
// here are deterministic given a seed, so runs across schedulers see
// identical request sequences and timings.
package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icilk"
	"icilk/internal/stats"
	"icilk/internal/xrand"
)

// OpenLoopConfig describes a request stream over operation classes.
type OpenLoopConfig struct {
	// RPS is the aggregate arrival rate.
	RPS float64
	// Duration is the measurement window.
	Duration time.Duration
	// Mix gives the relative weight of each operation class; its
	// length defines the class count.
	Mix []float64
	// ClassNames labels classes in results (optional).
	ClassNames []string
	// Seed makes arrivals and class choices reproducible.
	Seed uint64
	// Warmup discards latency samples for requests scheduled within
	// this span after start (load still applied).
	Warmup time.Duration
	// Spread, if positive, selects a user/shard id in [0, Spread) per
	// request, passed to Submit.
	Spread int
}

// Result collects per-class latencies for one run.
type Result struct {
	PerClass *stats.MultiRecorder
	All      *stats.Recorder
	Sent     int64
	Elapsed  time.Duration
}

// SubmitFunc injects one request of the given class and returns its
// future. user is in [0, Spread) (0 if Spread unset); seq is the
// request sequence number.
type SubmitFunc func(class, user int, seq int64) *icilk.Future

// pacer generates one deterministic open-loop arrival schedule:
// Poisson gaps at the configured rate, class picks by mix weight, and
// the optional user spread — the shared arrival process behind
// RunOpenLoop and RunOpenLoopGoodput.
// The draw sequence per arrival (gap, class, user) is fixed, so two
// pacers with the same config and seed produce identical schedules
// regardless of what the caller does between calls.
type pacer struct {
	rng      *xrand.Rand
	meanGap  float64
	mix      []float64
	totalW   float64
	spread   int
	next     time.Time
	deadline time.Time
}

// newPacer builds the arrival schedule [start, start+cfg.Duration).
func newPacer(cfg OpenLoopConfig, start time.Time) *pacer {
	if cfg.Seed == 0 {
		cfg.Seed = 0xfeed
	}
	var totalW float64
	for _, w := range cfg.Mix {
		totalW += w
	}
	return &pacer{
		rng: xrand.New(cfg.Seed),
		// Truncate to whole nanoseconds exactly as the pre-extraction
		// loops did, so existing seeds reproduce bit-identical
		// schedules.
		meanGap:  float64(time.Duration(float64(time.Second) / cfg.RPS)),
		mix:      cfg.Mix,
		totalW:   totalW,
		spread:   cfg.Spread,
		next:     start,
		deadline: start.Add(cfg.Duration),
	}
}

// Next returns the next scheduled arrival, or ok=false when the
// schedule is exhausted. The caller sleeps until the returned time
// (open-loop: the schedule never slows down for a lagging server).
func (p *pacer) Next() (scheduled time.Time, class, user int, ok bool) {
	gap := time.Duration(p.rng.Exp(p.meanGap))
	p.next = p.next.Add(gap)
	if p.next.After(p.deadline) {
		return time.Time{}, 0, 0, false
	}
	x := p.rng.Float64() * p.totalW
	for i, w := range p.mix {
		if x < w {
			class = i
			break
		}
		x -= w
	}
	if p.spread > 0 {
		user = p.rng.Intn(p.spread)
	}
	return p.next, class, user, true
}

// RunOpenLoop generates Poisson arrivals at the configured rate,
// dispatching classes by the mix weights, and records each request's
// latency from its scheduled arrival time to future completion.
func RunOpenLoop(cfg OpenLoopConfig, submit SubmitFunc) *Result {
	if len(cfg.Mix) == 0 {
		panic("workload: empty mix")
	}
	names := cfg.ClassNames
	if names == nil {
		names = make([]string, len(cfg.Mix))
		for i := range names {
			names[i] = fmt.Sprintf("class%d", i)
		}
	}

	res := &Result{PerClass: stats.NewMultiRecorder(), All: stats.NewRecorder(4096)}

	var wg sync.WaitGroup
	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)
	arrivals := newPacer(cfg, start)
	var seq int64
	for {
		scheduled, class, user, ok := arrivals.Next()
		if !ok {
			break
		}
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		seq++
		f := submit(class, user, seq)
		res.Sent++
		name := names[class]
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Wait()
			if !scheduled.After(measureFrom) {
				return
			}
			lat := time.Since(scheduled)
			res.PerClass.Record(name, lat)
			res.All.Record(lat)
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// GoodputSubmitFunc injects one request of the given class through an
// admission-controlled path. A non-nil error (wrapping
// icilk.ErrShed) means the request was rejected at the door and
// never reached the scheduler; otherwise the future resolves when the
// request finishes or is cancelled by its deadline.
type GoodputSubmitFunc func(class, user int, seq int64) (*icilk.Future, error)

// ClassGoodput counts one class's post-warmup request outcomes.
type ClassGoodput struct {
	Good int64 `json:"good"` // completed within the deadline
	Late int64 `json:"late"` // completed past the deadline, or cancelled
	Shed int64 `json:"shed"` // rejected by admission control
}

// Offered is the total post-warmup arrivals for the class.
func (c ClassGoodput) Offered() int64 { return c.Good + c.Late + c.Shed }

// GoodputFraction is Good / Offered (0 when nothing was offered).
func (c ClassGoodput) GoodputFraction() float64 {
	if off := c.Offered(); off > 0 {
		return float64(c.Good) / float64(off)
	}
	return 0
}

// GoodputResult is one overload run's outcome: per-class goodput
// classification plus the usual latency recorders (which only see
// admitted, completed requests).
type GoodputResult struct {
	ClassNames []string
	PerClass   []ClassGoodput
	Latency    *stats.MultiRecorder // admitted requests only
	Sent       int64
	Elapsed    time.Duration
}

// Total sums the per-class counts.
func (r *GoodputResult) Total() ClassGoodput {
	var t ClassGoodput
	for _, c := range r.PerClass {
		t.Good += c.Good
		t.Late += c.Late
		t.Shed += c.Shed
	}
	return t
}

// goodputCounters is the atomic accumulation behind one class's
// ClassGoodput (completion callbacks run concurrently).
type goodputCounters struct {
	good, late, shed atomic.Int64
}

// RunOpenLoopGoodput is RunOpenLoop for overload experiments: the same
// Poisson arrival process, but each request is classified as good
// (completed within deadline of its scheduled arrival), late
// (completed after it, or cancelled), or shed (rejected by the submit
// function). Requests scheduled during Warmup apply load but are not
// counted.
func RunOpenLoopGoodput(cfg OpenLoopConfig, deadline time.Duration, submit GoodputSubmitFunc) *GoodputResult {
	if len(cfg.Mix) == 0 {
		panic("workload: empty mix")
	}
	if deadline <= 0 {
		panic("workload: goodput needs a deadline")
	}
	names := cfg.ClassNames
	if names == nil {
		names = make([]string, len(cfg.Mix))
		for i := range names {
			names[i] = fmt.Sprintf("class%d", i)
		}
	}

	res := &GoodputResult{
		ClassNames: names,
		PerClass:   make([]ClassGoodput, len(cfg.Mix)),
		Latency:    stats.NewMultiRecorder(),
	}
	counters := make([]goodputCounters, len(cfg.Mix))

	var wg sync.WaitGroup
	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)
	arrivals := newPacer(cfg, start)
	var seq int64
	for {
		scheduled, class, user, ok := arrivals.Next()
		if !ok {
			break
		}
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		seq++
		measured := scheduled.After(measureFrom)
		f, err := submit(class, user, seq)
		res.Sent++
		if err != nil {
			if measured {
				counters[class].shed.Add(1)
			}
			continue
		}
		name := names[class]
		c := &counters[class]
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Wait()
			if !measured {
				return
			}
			lat := time.Since(scheduled)
			if f.Err() == nil && lat <= deadline {
				c.good.Add(1)
			} else {
				c.late.Add(1)
			}
			res.Latency.Record(name, lat)
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	for i := range counters {
		res.PerClass[i] = ClassGoodput{
			Good: counters[i].good.Load(),
			Late: counters[i].late.Load(),
			Shed: counters[i].shed.Load(),
		}
	}
	return res
}

// QoS is a predicate over a latency recorder (e.g. "95% of requests
// under 10ms").
type QoS func(*stats.Recorder) bool

// PercentileUnder returns the QoS "p-th percentile below limit" — the
// paper uses 95% under 10ms for Memcached.
func PercentileUnder(p float64, limit time.Duration) QoS {
	return func(r *stats.Recorder) bool {
		return r.Count() > 0 && r.Percentile(p) <= limit
	}
}

// FindMaxRPS binary-searches the largest request rate in [lo, hi]
// that still meets the QoS, mirroring the paper's methodology ("we
// find the maximum RPS that meets the QoS using a binary search on
// the RPS with a fixed client count"). run executes one load at the
// given RPS and returns its latency recorder.
func FindMaxRPS(lo, hi float64, iters int, qos QoS, run func(rps float64) *stats.Recorder) float64 {
	if !qos(run(lo)) {
		return 0 // even the floor fails
	}
	for i := 0; i < iters && hi-lo > 1; i++ {
		mid := (lo + hi) / 2
		if qos(run(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
