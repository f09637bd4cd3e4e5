package stats

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Histogram is a log-bucketed latency histogram: constant memory
// regardless of sample count, with bounded relative error on
// percentile queries. The exact Recorder is preferable for the
// benchmark windows in this repository (seconds of samples); the
// histogram serves long-running servers (cmd/memcached-server) where
// storing every sample is unreasonable.
//
// Buckets are spaced geometrically: bucket i covers
// [min*growth^i, min*growth^(i+1)), so a percentile query errs by at
// most the growth factor (default 1.07 ≈ 7% relative error, 256
// buckets spanning 100ns to well past a minute).
type Histogram struct {
	mu      sync.Mutex
	counts  []uint64
	total   uint64
	sum     time.Duration
	max     time.Duration
	min     time.Duration
	minBase float64 // lower bound of bucket 0, ns
	logG    float64 // log(growth)
}

// NewHistogram creates a histogram with the default geometry (256
// buckets, 100ns lower bound, 7% growth).
func NewHistogram() *Histogram {
	return NewHistogramGeometry(256, 100*time.Nanosecond, 1.07)
}

// NewHistogramGeometry creates a histogram with explicit geometry.
func NewHistogramGeometry(buckets int, min time.Duration, growth float64) *Histogram {
	if buckets < 2 || min <= 0 || growth <= 1 {
		panic("stats: bad histogram geometry")
	}
	return &Histogram{
		counts:  make([]uint64, buckets),
		minBase: float64(min),
		logG:    math.Log(growth),
	}
}

// bucketFor maps a duration to its bucket index (clamped).
func (h *Histogram) bucketFor(d time.Duration) int {
	if float64(d) <= h.minBase {
		return 0
	}
	i := int(math.Log(float64(d)/h.minBase) / h.logG)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// bucketUpper returns the upper bound of bucket i.
func (h *Histogram) bucketUpper(i int) time.Duration {
	return time.Duration(h.minBase * math.Exp(float64(i+1)*h.logG))
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	h.counts[h.bucketFor(d)]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if h.min == 0 || d < h.min {
		h.min = d
	}
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.total)
}

// Percentile returns an upper bound on the p-th percentile with the
// histogram's relative-error guarantee (0 if empty).
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i == len(h.counts)-1 {
				// The last bucket is unbounded above; the observed
				// max is its only meaningful upper estimate.
				return h.max
			}
			u := h.bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Cumulative returns, for each of the given ascending upper bounds,
// the number of samples in buckets wholly at or below that bound,
// plus the total sample count and the exact sum — the quantities a
// Prometheus histogram exposition needs. Counts inherit the
// histogram's bucket granularity: a sample is attributed to a bound
// only once its whole log-bucket fits under it, so each cumulative
// count errs by at most one bucket width (the growth factor, 7% by
// default).
func (h *Histogram) Cumulative(bounds []time.Duration) (counts []uint64, total uint64, sum time.Duration) {
	counts = make([]uint64, len(bounds))
	total, sum = h.CumulativeInto(counts, bounds)
	return counts, total, sum
}

// CumulativeInto is Cumulative writing the per-bound counts into
// counts, which must have len(bounds) elements, instead of allocating
// them.
func (h *Histogram) CumulativeInto(counts []uint64, bounds []time.Duration) (total uint64, sum time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	bi := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		u := h.bucketUpper(i)
		for bi < len(bounds) && u > bounds[bi] {
			counts[bi] = cum
			bi++
		}
		cum += c
	}
	for ; bi < len(bounds); bi++ {
		counts[bi] = cum
	}
	return h.total, h.sum
}

// Mean returns the exact mean (sums are tracked exactly).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.max, h.min = 0, 0, 0, 0
	h.mu.Unlock()
}

// String renders a one-line digest.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max())
}
