package icilk

import (
	"icilk/internal/admin"
	"icilk/internal/metrics"
	"icilk/internal/sched"
	"icilk/internal/trace"
)

// MetricsRegistry is the runtime's metric registry: atomic counters,
// gauges, and latency histograms with Prometheus text exposition.
// Every runtime owns one (see Runtime.Metrics); applications register
// their own series into it so one /metrics scrape covers scheduler
// and application together.
type MetricsRegistry = metrics.Registry

// MetricLabel is one label pair on a metric series.
type MetricLabel = metrics.Label

// SchedSnapshot is the point-in-time scheduler view served by the
// admin endpoint /debug/sched.
type SchedSnapshot = sched.Snapshot

// AdminServer is the runtime introspection HTTP server: GET /metrics
// (Prometheus text), GET /debug/sched (JSON scheduler snapshot), and
// GET /debug/trace (recent scheduler events).
type AdminServer = admin.Server

// Metrics returns the runtime's metric registry. The scheduler's
// counters (steals, muggings, abandonments, waste clocks, per-level
// deque gauges) and the I/O pool's queue gauges are pre-registered;
// applications add their own request counters and latency histograms.
func (r *Runtime) Metrics() *MetricsRegistry { return r.metrics }

// Snapshot captures the scheduler's observable state: bitfield,
// per-level pool depths, per-worker levels and waste clocks.
func (r *Runtime) Snapshot() SchedSnapshot { return r.rt.Snapshot() }

// ShardStats reports one pool per level and no relaxed-selection
// events: the sharded pool layout it described is gone. It is kept
// only because benchmark/counters.go reads it, and leaves with the
// next [benchmark] PR.
func (r *Runtime) ShardStats() (shards int, sampleMisses, sweeps int64) {
	return 1, 0, 0
}

// NewAdminServer creates an unbound admin server with no runtime
// attached. Most callers want ServeAdmin instead; the two-step form
// exists for harnesses that re-point one admin server at a sequence
// of short-lived runtimes (see Runtime.AttachAdmin).
func NewAdminServer() *AdminServer { return admin.New() }

// Health is the runtime state served by the admin endpoint /readyz.
type Health = admin.Health

// Health reports the runtime's readiness: Ready while the runtime is
// open with its workers started; Degraded while admission control is
// shedding 100% of arrivals (sustained: 100 consecutive sheds with no
// admission between them).
func (r *Runtime) Health() Health {
	h := Health{Ready: !r.closed.Load()}
	if !h.Ready {
		h.Detail = "runtime closed"
		return h
	}
	if r.adm != nil && r.adm.Degraded() {
		h.Degraded = true
		h.Detail = "admission control shedding all arrivals"
	}
	return h
}

// AttachAdmin points s's endpoints at this runtime (atomically; an
// admin server can be re-attached to a newer runtime at any time).
func (r *Runtime) AttachAdmin(s *AdminServer) {
	s.SetSources(admin.Sources{
		Metrics: r.metrics,
		Sched:   func() any { return r.rt.Snapshot() },
		TraceEvents: func() ([]trace.Event, bool) {
			l := r.rt.Trace()
			return l.Snapshot(), l != nil
		},
		Health: r.Health,
	})
}

// ServeAdmin starts an admin HTTP server bound to addr (host:port;
// use port 0 for an ephemeral port, then Addr() to discover it) and
// attaches this runtime to it. The runtime tracks the server:
// Runtime.Close shuts it down gracefully (http.Server.Shutdown —
// in-flight scrapes drain), so callers need not close it themselves,
// though closing it earlier is safe.
func (r *Runtime) ServeAdmin(addr string) (*AdminServer, error) {
	s := NewAdminServer()
	r.AttachAdmin(s)
	if err := s.Start(addr); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.admins = append(r.admins, s)
	r.mu.Unlock()
	return s, nil
}
