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
//     Gauge.Set/Add are single uncontended atomic operations.
//   - Zero allocation on the scrape path: everything in the exposition
//     that never changes — HELP and TYPE lines, each sample line's
//     name and labels — is rendered once, at registration, into
//     families and series kept sorted as they register; a scrape
//     appends only the values, into a render buffer the registry
//     keeps (at most maxRenders of them, across garbage collections).
//   - Pull-based sources: CounterFunc/GaugeFunc register callbacks so
//     values the runtime already maintains (worker clocks, queue
//     depths, the priority bitfield) are read only when scraped,
//     adding nothing to the scheduler's steady state.
//   - Per-priority-level labels: every metric accepts label pairs;
//     LevelLabel(i) is the conventional {level="i"} pair used
//     throughout the runtime.
package metrics

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icilk/internal/invariant"
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

// series is one labeled instance within a family; appendTo appends
// its exposition lines to rb.buf, whose text up to each value was
// rendered at registration.
type series struct {
	sig      string // canonical label signature, for dedup and sort
	appendTo func(rb *render)
}

// family groups all series sharing one metric name, kept sorted by
// label signature.
type family struct {
	name   string
	kind   kind
	header []byte // the # HELP and # TYPE lines
	series []*series
}

// Registry holds metric families and renders them in Prometheus text
// format. All registration methods panic on invalid names, duplicate
// (name, labels) series, or kind mismatches — misregistration is a
// programming error, caught at startup.
type Registry struct {
	mu   sync.RWMutex
	fams []*family // sorted by name
	// renders holds the render scratch of finished scrapes, at most
	// maxRenders: each scrape takes its own, so a slow client blocks
	// no other scrape.
	renders chan *render
}

// maxRenders bounds the render buffers a registry keeps between
// scrapes; a scrape that finds none makes one, and one that finishes
// beside maxRenders others drops its buffer.
const maxRenders = 4

// render is one scrape's scratch: the exposition buffer and the
// histogram cumulative counts.
type render struct {
	buf    []byte
	counts []uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{renders: make(chan *render, maxRenders)} }

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

// prefix is a sample line up to its value: "name{labels} ".
func prefix(name, labels string) []byte { return []byte(name + labels + " ") }

// register validates and inserts one series, creating its family as
// needed; newSeries builds the series from its label signature.
func (r *Registry) register(name, help string, k kind, labels []Label, newSeries func(sig string) func(rb *render)) {
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
	fi, found := slices.BinarySearchFunc(r.fams, name, func(f *family, n string) int { return strings.Compare(f.name, n) })
	if !found {
		var h []byte
		if help != "" {
			h = fmt.Appendf(h, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " "))
		}
		h = fmt.Appendf(h, "# TYPE %s %s\n", name, k)
		r.fams = slices.Insert(r.fams, fi, &family{name: name, kind: k, header: h})
	}
	f := r.fams[fi]
	if f.kind != k {
		panic(fmt.Sprintf("metrics: %s re-registered as %v (was %v)", name, k, f.kind))
	}
	si, dup := slices.BinarySearchFunc(f.series, sig, func(s *series, sig string) int { return strings.Compare(s.sig, sig) })
	if dup {
		panic(fmt.Sprintf("metrics: duplicate series %s%s", name, sig))
	}
	f.series = slices.Insert(f.series, si, &series{sig: sig, appendTo: newSeries(sig)})
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, counterKind, labels, func(sig string) func(*render) {
		p := prefix(name, sig)
		return func(rb *render) { rb.buf = appendInt(rb.buf, p, c.Value()) }
	})
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — for totals the runtime already maintains elsewhere
// (worker clocks, trace counts). fn must be safe for concurrent use
// and should be monotone.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, counterKind, labels, func(sig string) func(*render) {
		p := prefix(name, sig)
		return func(rb *render) { rb.buf = appendFloat(rb.buf, p, fn()) }
	})
}

// Gauge registers and returns a new gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, gaugeKind, labels, func(sig string) func(*render) {
		p := prefix(name, sig)
		return func(rb *render) { rb.buf = appendInt(rb.buf, p, g.Value()) }
	})
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, gaugeKind, labels, func(sig string) func(*render) {
		p := prefix(name, sig)
		return func(rb *render) { rb.buf = appendFloat(rb.buf, p, fn()) }
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
	r.register(name, help, histogramKind, labels, func(sig string) func(*render) {
		// One line prefix per bucket, then +Inf, _sum and _count.
		bucket := make([][]byte, len(bounds))
		for i, bd := range bounds {
			bucket[i] = prefix(name+"_bucket", renderLabels(labels, `le="`+formatFloat(bd.Seconds())+`"`))
		}
		inf := prefix(name+"_bucket", renderLabels(labels, `le="+Inf"`))
		sum, count := prefix(name+"_sum", sig), prefix(name+"_count", sig)
		return func(rb *render) {
			rb.counts = slices.Grow(rb.counts[:0], len(bounds))[:len(bounds)]
			total, s := h.h.CumulativeInto(rb.counts, bounds)
			for i, c := range rb.counts {
				rb.buf = appendUint(rb.buf, bucket[i], c)
			}
			rb.buf = appendUint(rb.buf, inf, total)
			rb.buf = appendFloat(rb.buf, sum, s.Seconds())
			rb.buf = appendUint(rb.buf, count, total)
		}
	})
	return h
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendInt, appendUint and appendFloat append one sample line: its
// pre-rendered prefix, the value, and a newline.
func appendInt(b, prefix []byte, v int64) []byte {
	return append(strconv.AppendInt(append(b, prefix...), v, 10), '\n')
}

func appendUint(b, prefix []byte, v uint64) []byte {
	return append(strconv.AppendUint(append(b, prefix...), v, 10), '\n')
}

func appendFloat(b, prefix []byte, v float64) []byte {
	return append(strconv.AppendFloat(append(b, prefix...), v, 'g', -1, 64), '\n')
}

// renderAll takes a render buffer and fills it with the exposition;
// the caller hands it back with putRender.
func (r *Registry) renderAll() *render {
	var rb *render
	select {
	case rb = <-r.renders:
	default:
		rb = new(render)
	}
	rb.buf = rb.buf[:0]
	r.mu.RLock()
	for _, f := range r.fams {
		rb.buf = append(rb.buf, f.header...)
		for _, s := range f.series {
			s.appendTo(rb)
		}
	}
	r.mu.RUnlock()
	return rb
}

// putRender returns a finished scrape's buffer to the registry, in
// icilk_debug builds poisoned first, so output read after its scrape
// returned is garbage instead of a plausible exposition.
func (r *Registry) putRender(rb *render) {
	if invariant.Enabled {
		buf := rb.buf[:cap(rb.buf)]
		for i := range buf {
			buf[i] = 0xdb
		}
		for i := range rb.counts {
			rb.counts[i] = 0xdbdbdbdbdbdbdbdb
		}
	}
	select {
	case r.renders <- rb:
	default:
	}
}

// WriteTo renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with HELP and TYPE
// lines, series sorted by label signature. Safe to call concurrently
// with registrations and metric updates. It allocates nothing once
// the registry keeps a render buffer.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	rb := r.renderAll()
	n, err := w.Write(rb.buf)
	if err == nil && n < len(rb.buf) {
		err = io.ErrShortWrite
	}
	r.putRender(rb)
	return int64(n), err
}

// String renders the full exposition (diagnostics, tests); the
// returned string is its only allocation.
func (r *Registry) String() string {
	rb := r.renderAll()
	s := string(rb.buf)
	r.putRender(rb)
	return s
}
