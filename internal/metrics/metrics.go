// Package metrics is a low-overhead metric registry for the runtime's
// observability subsystem: atomic counters and gauges, fixed-bucket
// latency histograms backed by stats.Histogram, and Prometheus
// text-format exposition via WriteTo. The paper evaluates its
// schedulers through exactly the counters this package exports live —
// steals, muggings, abandonments, waste clocks, per-level latency —
// so a production deployment can watch the same quantities the
// figures report.
//
// Design constraints:
//
//   - Zero allocation on the hot increment path: Counter.Inc/Add and
//     Gauge.Set/Add are single uncontended atomic operations; all
//     formatting cost is paid at scrape time.
//   - Pull-based sources: CounterFunc/GaugeFunc register callbacks so
//     values the runtime already maintains (worker clocks, queue
//     depths, the priority bitfield) are read only when scraped,
//     adding nothing to the scheduler's steady state.
//   - Per-priority-level labels: every metric accepts label pairs;
//     LevelLabel(i) is the conventional {level="i"} pair used
//     throughout the runtime.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icilk/internal/stats"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L constructs a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LevelLabel returns the conventional priority-level label
// {level="<l>"}.
func LevelLabel(l int) Label { return Label{Key: "level", Value: strconv.Itoa(l)} }

// Counter is a monotonically increasing value. The zero value is not
// usable; obtain counters from a Registry.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Zero-allocation, safe for concurrent use.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an arbitrary instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets are the exposition bucket upper bounds used
// for request-latency histograms: log-ish spacing from 50µs to 10s,
// bracketing both the benchmarks' microsecond service times and the
// paper's 10ms QoS bound.
var DefaultLatencyBuckets = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
	5 * time.Second, 10 * time.Second,
}

// Histogram is a latency histogram with a fixed set of exposition
// buckets. Samples are recorded into a fine-grained log-bucketed
// stats.Histogram (256 buckets, bounded relative error); the coarser
// Prometheus buckets are derived from it at scrape time, so Observe
// costs one mutex-protected bucket increment regardless of how many
// exposition buckets are configured.
type Histogram struct {
	h      *stats.Histogram
	bounds []time.Duration
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) { h.h.Record(d) }

// Underlying returns the backing stats.Histogram (percentile queries,
// String digests).
func (h *Histogram) Underlying() *stats.Histogram { return h.h }

// metric kinds (the Prometheus TYPE line).
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	}
	return "histogram"
}

// series is one labeled instance within a family; write appends its
// exposition lines to b.
type series struct {
	sig   string // canonical label signature, for dedup and sort
	write func(b *bytes.Buffer)
}

// family groups all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// Registry holds metric families and renders them in Prometheus text
// format. All registration methods panic on invalid names, duplicate
// (name, labels) series, or kind mismatches — misregistration is a
// programming error, caught at startup.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// validName enforces the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && !(i > 0 && r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// escapeLabelValue escapes backslash, double-quote, and newline per
// the text-format rules.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// renderLabels formats {k="v",...} (empty string for no labels);
// extra, if non-empty, is an additional pre-rendered pair appended
// last (the histogram le bound).
func renderLabels(labels []Label, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// register validates and inserts one series, creating its family as
// needed.
func (r *Registry) register(name, help string, k kind, labels []Label, write func(b *bytes.Buffer)) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label name %q (metric %s)", l.Key, name))
		}
	}
	sig := renderLabels(labels, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.fams[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: %s re-registered as %v (was %v)", name, k, f.kind))
	}
	for _, s := range f.series {
		if s.sig == sig {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, sig))
		}
	}
	f.series = append(f.series, &series{sig: sig, write: write})
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	ls := renderLabels(labels, "")
	r.register(name, help, counterKind, labels, func(b *bytes.Buffer) {
		fmt.Fprintf(b, "%s%s %d\n", name, ls, c.Value())
	})
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — for totals the runtime already maintains elsewhere
// (worker clocks, trace counts). fn must be safe for concurrent use
// and should be monotone.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	ls := renderLabels(labels, "")
	r.register(name, help, counterKind, labels, func(b *bytes.Buffer) {
		fmt.Fprintf(b, "%s%s %s\n", name, ls, formatFloat(fn()))
	})
}

// Gauge registers and returns a new gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	ls := renderLabels(labels, "")
	r.register(name, help, gaugeKind, labels, func(b *bytes.Buffer) {
		fmt.Fprintf(b, "%s%s %d\n", name, ls, g.Value())
	})
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	ls := renderLabels(labels, "")
	r.register(name, help, gaugeKind, labels, func(b *bytes.Buffer) {
		fmt.Fprintf(b, "%s%s %s\n", name, ls, formatFloat(fn()))
	})
}

// Histogram registers and returns a latency histogram with the given
// exposition bucket upper bounds (ascending; nil = the default
// latency buckets).
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bounds not ascending", name))
		}
	}
	h := &Histogram{h: stats.NewHistogram(), bounds: bounds}
	ls := renderLabels(labels, "")
	// Pre-render the per-bucket label sets (scrape-time cost only).
	bls := make([]string, len(bounds))
	for i, bd := range bounds {
		bls[i] = renderLabels(labels, `le="`+formatFloat(bd.Seconds())+`"`)
	}
	infLS := renderLabels(labels, `le="+Inf"`)
	r.register(name, help, histogramKind, labels, func(b *bytes.Buffer) {
		counts, total, sum := h.h.Cumulative(bounds)
		for i := range bounds {
			fmt.Fprintf(b, "%s_bucket%s %d\n", name, bls[i], counts[i])
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, infLS, total)
		fmt.Fprintf(b, "%s_sum%s %s\n", name, ls, formatFloat(sum.Seconds()))
		fmt.Fprintf(b, "%s_count%s %d\n", name, ls, total)
	})
	return h
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with HELP and TYPE
// lines, series sorted by label signature. Safe to call concurrently
// with registrations and metric updates.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := r.fams[n]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		ss := make([]*series, len(f.series))
		copy(ss, f.series)
		sort.Slice(ss, func(i, j int) bool { return ss[i].sig < ss[j].sig })
		for _, s := range ss {
			s.write(&b)
		}
	}
	r.mu.RUnlock()
	return b.WriteTo(w)
}

// String renders the full exposition (diagnostics, tests).
func (r *Registry) String() string {
	var b bytes.Buffer
	r.WriteTo(&b)
	return b.String()
}
