package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// metricSpec names one metric. BENCHMARK.json at the repository root
// lists the same names, units and directions (spec_test.go keeps the
// two in step).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the base's median by which an end-to-end
	// metric may worsen before `compare` calls it worse: the issue's
	// number.
	Bound float64 `json:"-"`
	// Gate is the metric's bound in BENCHMARK.json, where a driver
	// reads it; 0 keeps the metric out of the driver's end-to-end
	// list. A driver refuses a benchmark whose own spread over ten
	// seeds exceeds the bound, and wants every gated metric on every
	// workload, so only what this box repeats within 25 % on all four
	// is gated (README.md, "Bounds").
	Gate float64 `json:"-"`
	// Workloads is where the metric exists; nil means everywhere.
	Workloads []string `json:"-"`
}

func (s metricSpec) appliesTo(workload string) bool {
	return s.Workloads == nil || slices.Contains(s.Workloads, workload)
}

// endToEnd is measured with tracing off; README.md has the
// definitions. ok_frac's bound is absolute in the issue (0.005); the
// fraction sits at 1, so the relative bound is the same number.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "hi_p99_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "lo_p99_ms", Unit: "ms", Better: "lower", Bound: 0.15, Workloads: []string{"job_levels"}},
	{Name: "sat_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.05},
	{Name: "bg_Melems_s", Unit: "Melem/s", Better: "higher", Bound: 0.10, Workloads: []string{"sched_mixed"}},
	{Name: "allocs_per_op", Unit: "1/op", Better: "lower", Bound: 0.05, Gate: 0.25},
	{Name: "ok_frac", Unit: "fraction", Better: "higher", Bound: 0.005, Gate: 0.02},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10, Gate: 0.25},
}

// driverSpecs is the flat list a driver expects on the last output
// line: with --trace 0 the gated end-to-end metrics, with --trace 1
// the other end-to-end metrics followed by the per-layer ones. There a
// metric that does not exist on the workload reads 0.
func driverSpecs(trace bool) []metricSpec {
	var gated, rest []metricSpec
	for _, s := range endToEnd {
		if s.Gate > 0 {
			gated = append(gated, s)
		} else {
			rest = append(rest, s)
		}
	}
	if !trace {
		return gated
	}
	return append(rest, perLayer...)
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// perLayer comes from the traced run: probes (isolated call loops on
// a quiet runtime), counter deltas over nominal, and spans.
var perLayer = []metricSpec{
	lower("sched.spawn_sync_ns", "ns"),
	lower("sched.spawn_sync_allocs", "1/op"),
	lower("sched.fut_create_get_ns", "ns"),
	lower("sched.fut_create_get_allocs", "1/op"),
	lower("sched.submit_wait_ns", "ns"),
	lower("sched.submit_wait_allocs", "1/op"),
	lower("sched.submit_wait_bytes", "B/op"),
	lower("sched.idle_submit_wait_us", "us"),
	lower("sched.steals_per_op", "1/op"),
	lower("sched.failed_steals_per_op", "1/op"),
	higher("sched.steal_success_frac", "fraction"),
	lower("sched.mugs_per_op", "1/op"),
	lower("sched.suspends_per_op", "1/op"),
	lower("sched.resumes_per_op", "1/op"),
	lower("sched.sleeps_per_op", "1/op"),
	lower("sched.bitfield_checks_per_op", "1/op"),
	lower("sched.sample_misses_per_op", "1/op"),
	lower("sched.sweeps_per_op", "1/op"),
	lower("sched.waste_frac", "fraction"),
	lower("sched.overhead_frac", "fraction"),
	lower("sched.submit_to_run_p50_us", "us"),
	lower("sched.submit_to_run_p99_us", "us"),
	lower("sched.io_resume_us", "us"),
	lower("prio.check_ns", "ns"),
	lower("prio.set_clear_ns", "ns"),
	lower("prio.wake_us", "us"),
	lower("deque.push_pop_ns", "ns"),
	lower("deque.steal_ns", "ns"),
	lower("fifoq.enq_deq_ns", "ns"),
	lower("fifoq.enq_deq_2p_ns", "ns"),
	lower("epoch.pin_unpin_ns", "ns"),
	higher("parallel.reduce_Melems_s", "Melem/s"),
	lower("parallel.for_ns_per_iter", "ns"),
	higher("parallel.scan_Melems_s", "Melem/s"),
	lower("parallel.autograin", "ns"),
	lower("iopool.submit_ns", "ns"),
	higher("iopool.fns_per_batch", "count"),
	lower("iopool.spills_per_op", "1/op"),
	lower("iopool.high_water", "count"),
	lower("iopool.submit_batch_ns", "ns"),
	lower("netpoll.epoll_waits_per_op", "1/op"),
	higher("netpoll.events_per_wait", "count"),
	higher("netpoll.fns_per_batch", "count"),
	lower("netpoll.epoll_ctl_per_conn", "count"),
	lower("netreal.sys_reads_per_op", "1/op"),
	lower("netreal.sys_writes_per_op", "1/op"),
	lower("netreal.syscalls_per_op", "1/op"),
	higher("netreal.bytes_per_read", "B"),
	higher("netreal.pool_hit_frac", "fraction"),
	lower("netreal.pauses_per_kop", "1/kop"),
	lower("netreal.try_read_ns", "ns"),
	lower("netreal.write_ns", "ns"),
	lower("netreal.flush_ns", "ns"),
	lower("netreal.ready_wait_us", "us"),
	lower("wire.fields_ns", "ns"),
	lower("wire.parse_uint_ns", "ns"),
	lower("memcached.parse_exec_get_ns", "ns"),
	lower("memcached.parse_exec_set_ns", "ns"),
	lower("memcached.parse_exec_mget16_ns", "ns"),
	lower("memcached.parse_exec_allocs", "1/op"),
	lower("memcached.store_get_ns", "ns"),
	lower("memcached.store_set_ns", "ns"),
	higher("memcached.hit_frac", "fraction"),
	lower("memcached.evictions_per_op", "1/op"),
	lower("memcached.req_self_us", "us"),
	lower("jobserver.mm_us", "us"),
	lower("jobserver.fib_us", "us"),
	lower("jobserver.sort_us", "us"),
	lower("jobserver.sw_us", "us"),
	lower("admission.acquire_release_ns", "ns"),
	lower("predict.predict_ns", "ns"),
	lower("predict.update_ns", "ns"),
	lower("cluster.ring_owner_ns", "ns"),
	lower("gen.late_p50_us", "us"),
	lower("gen.late_p99_us", "us"),
	lower("client.send_to_done_p50_us", "us"),
	lower("proc.bytes_per_op", "B/op"),
	lower("proc.gc_cycles", "count"),
	lower("proc.gc_pause_ms", "ms"),
	lower("proc.cpu_us_per_op_sat", "us"),
	lower("trace.overhead_frac", "fraction"),
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the one line the driver parses: exactly these keys.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// phaseCount is the request accounting of one phase.
type phaseCount struct {
	Phase     string  `json:"phase"`
	RateRPS   float64 `json:"rate_rps,omitempty"`
	Seconds   float64 `json:"seconds"`
	Attempted int64   `json:"attempted"`
	Correct   int64   `json:"correct"`
	Wrong     int64   `json:"wrong"`
	NoReply   int64   `json:"no_reply"`
	// How late the generator issued requests (sent - due), us.
	LateP50US float64 `json:"gen_late_p50_us,omitempty"`
	LateP99US float64 `json:"gen_late_p99_us,omitempty"`
}

// result is the full record of one run, written beside the summary
// line so `compare` has the context the summary omits.
type result struct {
	Workload       string       `json:"workload"`
	Seed           uint64       `json:"seed"`
	Seconds        float64      `json:"seconds"`
	Trace          bool         `json:"trace"`
	Smoke          bool         `json:"smoke"`
	Host           hostFacts    `json:"host"`
	Network        string       `json:"network"`
	ScheduleSHA256 string       `json:"schedule_sha256"`
	GenLate        bool         `json:"gen_late"`
	Phases         []phaseCount `json:"phases"`
	// P99Windows/P99MinSamples describe the tail estimator's input
	// for p99_ms: how many windows, and the fewest samples in one.
	P99Windows    int       `json:"p99_windows,omitempty"`
	P99MinSamples int       `json:"p99_min_samples,omitempty"`
	SetupsS       []float64 `json:"setups_s,omitempty"`
	// StealS is the CPU time the hypervisor withheld during the run.
	StealS float64 `json:"steal_s"`
	summary
}

// specOf finds a metric in the two tables.
func specOf(name string) (metricSpec, bool) {
	for _, table := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range table {
			if s.Name == name {
				return s, true
			}
		}
	}
	return metricSpec{}, false
}

func (r *result) set(name string, v float64) {
	s, ok := specOf(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the spec tables")
	}
	r.Metrics[name] = metricValue{v, s.Unit}
}

// expected is what this run has to produce: every end-to-end metric
// with tracing off, the driver's --trace 1 list with it on, in both
// cases without the metrics that do not exist on its workload.
func (r *result) expected() []metricSpec {
	specs := endToEnd
	if r.Trace {
		specs = driverSpecs(true)
	}
	var out []metricSpec
	for _, s := range specs {
		if s.appliesTo(r.Workload) {
			out = append(out, s)
		}
	}
	return out
}

// missing lists expected metrics the run did not produce, or produced
// as NaN/Inf; the run fails on any.
func (r *result) missing() []string {
	var out []string
	for _, s := range r.expected() {
		m, ok := r.Metrics[s.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out = append(out, s.Name)
		}
	}
	return out
}

// driverLine is the last line of output: the driver's flat list, a
// metric that does not exist on this workload reading 0.
func (r *result) driverLine() ([]byte, error) {
	line := r.summary
	line.Metrics = map[string]metricValue{}
	for _, s := range driverSpecs(r.Trace) {
		line.Metrics[s.Name] = metricValue{r.Metrics[s.Name].Value, s.Unit}
	}
	return json.Marshal(line)
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  %.0f s  trace %v  schedule_sha256 %s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.ScheduleSHA256)
	fmt.Fprintf(w, "host: %s\nnetwork: %s\n", r.Host, r.Network)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-8s %6.2f s  offered %8.0f rps  attempted %8d  correct %8d  wrong %d  no_reply %d  gen late p50 %.0f us p99 %.0f us\n",
			p.Phase, p.Seconds, p.RateRPS, p.Attempted, p.Correct, p.Wrong, p.NoReply, p.LateP50US, p.LateP99US)
	}
	if r.P99Windows > 0 {
		fmt.Fprintf(w, "  p99_ms: median of %d window p99s, >= %d samples per window\n", r.P99Windows, r.P99MinSamples)
	}
	fmt.Fprintf(w, "  host steal during the run: %.2f s\n", r.StealS)
	if r.GenLate {
		fmt.Fprintln(w, "  gen_late: true — the generator ran more than 2 ms late at p99; compare drops this run's latency metrics")
	}
	for _, s := range r.expected() {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", s.Name, r.Metrics[s.Name].Value, s.Unit)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
}

func (r *result) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tr := 0
	if r.Trace {
		tr = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, tr))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
