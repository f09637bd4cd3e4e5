// Package stats provides the measurement machinery for the benchmark
// harnesses: exact latency recorders with percentile queries, per-class
// (priority/operation) breakdowns, periodic time-series samplers for
// scheduler-internal quantities (e.g. the number of non-empty deques,
// Figure 2 of the paper), and the waste/overhead accounting described
// in the paper's Section 5.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Recorder collects latency samples for one class of requests. It keeps
// every sample (the benchmark runs are small enough that exact
// percentiles are affordable and avoid histogram-resolution arguments).
// Recorder is safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

// NewRecorder returns an empty recorder with the given capacity hint.
func NewRecorder(capacityHint int) *Recorder {
	return &Recorder{samples: make([]time.Duration, 0, capacityHint)}
}

// Record adds one latency sample.
func (r *Recorder) Record(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.sorted = false
	r.mu.Unlock()
}

// Count returns the number of recorded samples.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// ensureSorted sorts the sample slice in place. Callers must hold mu.
func (r *Recorder) ensureSorted() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, which is what tail-latency SLOs conventionally
// use. It returns 0 if no samples have been recorded.
func (r *Recorder) Percentile(p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	if p <= 0 {
		return r.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(r.samples) {
		rank = len(r.samples)
	}
	return r.samples[rank-1]
}

// Mean returns the arithmetic mean of the samples (0 if empty).
func (r *Recorder) Mean() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / time.Duration(len(r.samples))
}

// Median returns the 50th percentile.
func (r *Recorder) Median() time.Duration { return r.Percentile(50) }

// Max returns the largest sample (0 if empty).
func (r *Recorder) Max() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	return r.samples[len(r.samples)-1]
}

// Min returns the smallest sample (0 if empty).
func (r *Recorder) Min() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	return r.samples[0]
}

// Summary is a one-line digest of a recorder, convenient for harness
// table rows.
type Summary struct {
	Count  int
	Mean   time.Duration
	Median time.Duration
	P95    time.Duration
	P99    time.Duration
	Max    time.Duration
}

// Summarize computes the standard digest the paper reports (mean,
// median, p95, p99).
func (r *Recorder) Summarize() Summary {
	return Summary{
		Count:  r.Count(),
		Mean:   r.Mean(),
		Median: r.Median(),
		P95:    r.Percentile(95),
		P99:    r.Percentile(99),
		Max:    r.Max(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean, s.Median, s.P95, s.P99, s.Max)
}

// MultiRecorder keys recorders by class name (operation type or
// priority level), creating them on first use.
type MultiRecorder struct {
	mu   sync.Mutex
	recs map[string]*Recorder
}

// NewMultiRecorder returns an empty multi-class recorder.
func NewMultiRecorder() *MultiRecorder {
	return &MultiRecorder{recs: make(map[string]*Recorder)}
}

// Class returns the recorder for the named class, creating it if
// needed.
func (m *MultiRecorder) Class(name string) *Recorder {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.recs[name]
	if !ok {
		r = NewRecorder(1024)
		m.recs[name] = r
	}
	return r
}

// Record adds a sample under the named class.
func (m *MultiRecorder) Record(name string, d time.Duration) {
	m.Class(name).Record(d)
}

// Classes returns the class names in sorted order.
func (m *MultiRecorder) Classes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.recs))
	for k := range m.recs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
