package metrics

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"

	"icilk/internal/invariant"
)

// goldenRegistry exercises every part of the exposition: families
// registered out of name order, every metric kind, a family without
// HELP, help text with a newline, label values that need escaping, and
// several series per family registered out of signature order.
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("icilk_z_requests_total", "Requests served.\nSecond help line.",
		L("path", `a"b`), LevelLabel(1))
	c.Add(7)
	r.CounterFunc("icilk_z_requests_total", "ignored: the family's help is the first",
		func() float64 { return 1e21 }, L("path", `a"b`), LevelLabel(0))
	r.Counter("icilk_z_requests_total", "", L("path", "/")).Inc()
	g := r.Gauge("icilk_m_depth", "Queue depth.", L("q", "new\nline"))
	g.Set(-3)
	r.Gauge("icilk_m_depth", "", L("q", `back\slash`)).Set(1 << 40)
	r.Gauge("icilk_m_depth", "")
	r.GaugeFunc("icilk_b_ratio", "", func() float64 { return 0.125 }, L("k", "v"))
	r.GaugeFunc("icilk_b_ratio", "", func() float64 { return math.Inf(-1) })
	r.CounterFunc("icilk_c_seconds_total", "Seconds.", func() float64 { return 2.5e-7 })
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond, 1500 * time.Millisecond}
	h1 := r.Histogram("icilk_a_latency_seconds", "Latency.", bounds, L("app", "x"), LevelLabel(1))
	h0 := r.Histogram("icilk_a_latency_seconds", "", bounds, L("app", "x"), LevelLabel(0))
	for _, d := range []time.Duration{300 * time.Microsecond, 4 * time.Millisecond, 2 * time.Second} {
		h1.Observe(d)
	}
	h0.Observe(20 * time.Millisecond)
	r.Histogram("icilk_a_latency_seconds", "", bounds, L("app", `q"uote`))
	return r
}

// expositionGolden is goldenRegistry's exposition as rendered by the
// fmt-based renderer this package started with; the text format must
// not change under any rendering optimisation.
const expositionGolden = `# HELP icilk_a_latency_seconds Latency.
# TYPE icilk_a_latency_seconds histogram
icilk_a_latency_seconds_bucket{app="q\"uote",le="0.001"} 0
icilk_a_latency_seconds_bucket{app="q\"uote",le="0.01"} 0
icilk_a_latency_seconds_bucket{app="q\"uote",le="1.5"} 0
icilk_a_latency_seconds_bucket{app="q\"uote",le="+Inf"} 0
icilk_a_latency_seconds_sum{app="q\"uote"} 0
icilk_a_latency_seconds_count{app="q\"uote"} 0
icilk_a_latency_seconds_bucket{app="x",level="0",le="0.001"} 0
icilk_a_latency_seconds_bucket{app="x",level="0",le="0.01"} 0
icilk_a_latency_seconds_bucket{app="x",level="0",le="1.5"} 1
icilk_a_latency_seconds_bucket{app="x",level="0",le="+Inf"} 1
icilk_a_latency_seconds_sum{app="x",level="0"} 0.02
icilk_a_latency_seconds_count{app="x",level="0"} 1
icilk_a_latency_seconds_bucket{app="x",level="1",le="0.001"} 1
icilk_a_latency_seconds_bucket{app="x",level="1",le="0.01"} 2
icilk_a_latency_seconds_bucket{app="x",level="1",le="1.5"} 2
icilk_a_latency_seconds_bucket{app="x",level="1",le="+Inf"} 3
icilk_a_latency_seconds_sum{app="x",level="1"} 2.0043
icilk_a_latency_seconds_count{app="x",level="1"} 3
# TYPE icilk_b_ratio gauge
icilk_b_ratio -Inf
icilk_b_ratio{k="v"} 0.125
# HELP icilk_c_seconds_total Seconds.
# TYPE icilk_c_seconds_total counter
icilk_c_seconds_total 2.5e-07
# HELP icilk_m_depth Queue depth.
# TYPE icilk_m_depth gauge
icilk_m_depth 0
icilk_m_depth{q="back\\slash"} 1099511627776
icilk_m_depth{q="new\nline"} -3
# HELP icilk_z_requests_total Requests served. Second help line.
# TYPE icilk_z_requests_total counter
icilk_z_requests_total{path="/"} 1
icilk_z_requests_total{path="a\"b",level="0"} 1e+21
icilk_z_requests_total{path="a\"b",level="1"} 7
`

// TestExpositionGolden: WriteTo's bytes match the recorded exposition.
func TestExpositionGolden(t *testing.T) {
	var b bytes.Buffer
	n, err := goldenRegistry().WriteTo(&b)
	if err != nil || n != int64(b.Len()) {
		t.Fatalf("WriteTo = %d, %v; wrote %d bytes", n, err, b.Len())
	}
	if got := b.String(); got != expositionGolden {
		t.Errorf("exposition changed:\n--- got ---\n%s--- want ---\n%s", got, expositionGolden)
	}
}

// TestScrapeAllocFree: once the registry keeps a render buffer, a
// scrape of every metric kind, labels and histograms included,
// allocates nothing, and String only the string it returns.
func TestScrapeAllocFree(t *testing.T) {
	if invariant.Race {
		t.Skip("allocation accounting differs under -race")
	}
	r := goldenRegistry()
	r.WriteTo(io.Discard) // warm-up: leaves a render buffer behind
	if got := testing.AllocsPerRun(100, func() { r.WriteTo(io.Discard) }); got != 0 {
		t.Errorf("WriteTo allocates %v objects per scrape, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = r.String() }); got > 1 {
		t.Errorf("String allocates %v objects per scrape, want <= 1", got)
	}
}
