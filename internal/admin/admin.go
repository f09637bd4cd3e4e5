// Package admin is the runtime's introspection HTTP server (stdlib
// net/http only): a small endpoint surface for watching a live
// scheduler instead of instrumenting a test harness around it.
//
//	GET /            endpoint index (text)
//	GET /healthz     liveness: 200 whenever the server can answer
//	GET /readyz      readiness: 200 while the attached runtime is open
//	                 and accepting work; 503 (with a JSON body) when no
//	                 runtime is attached, the runtime has closed, or
//	                 admission control reports sustained 100% shedding
//	GET /metrics     Prometheus text exposition of the metric registry
//	GET /debug/sched JSON scheduler snapshot (bitfield, per-level pool
//	                 depths, per-worker state and waste clocks)
//	GET /debug/trace JSON snapshot of the recent scheduler event ring
//	                 (?n=K limits to the most recent K events)
//	GET /debug/pprof/ Go runtime profiles (net/http/pprof): heap and
//	                 allocs for the hot-path allocation budget, profile
//	                 (CPU), goroutine, block, mutex, trace, …
//
// The server's data sources are swappable at runtime (SetSources), so
// one admin server can follow a sequence of short-lived runtimes:
// icilk's Runtime.AttachAdmin re-points it at a runtime, as
// TestAdminFollowsRuntimes does for two in turn.
//
// # Security
//
// Every endpoint is unauthenticated, and the pprof handlers include
// CPU profiling and execution tracing, which measurably degrade the
// scheduler they observe — anyone who can reach the port can trigger
// them. Bind the server to loopback (127.0.0.1:6060) or an internal
// interface only; to expose it beyond that, wrap Handler() in your
// own auth middleware instead of calling Start.
package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"icilk/internal/metrics"
	"icilk/internal/trace"
)

// Health is the runtime view behind GET /readyz: Ready means the
// runtime is open and its workers are started; Degraded means
// admission control is currently rejecting every arrival (a load
// balancer should stop routing new traffic here until it clears).
type Health struct {
	Ready    bool   `json:"ready"`
	Degraded bool   `json:"degraded"`
	Detail   string `json:"detail,omitempty"`
}

// Sources are the data feeds behind the endpoints. Any field may be
// nil/zero; the corresponding endpoint then answers 503.
type Sources struct {
	// Metrics backs GET /metrics.
	Metrics *metrics.Registry
	// Sched returns the scheduler snapshot for GET /debug/sched; the
	// result is JSON-marshalled as-is.
	Sched func() any
	// TraceEvents returns the retained scheduler events, oldest
	// first, for GET /debug/trace; enabled is false when the runtime
	// was built without an event trace (TraceCapacity 0).
	TraceEvents func() (events []trace.Event, enabled bool)
	// Health backs GET /readyz (liveness /healthz never consults it).
	Health func() Health
}

// Server is the admin HTTP server. Create with New, point it at a
// runtime with SetSources, bind with Start.
type Server struct {
	mux *http.ServeMux
	src atomic.Pointer[Sources]

	mu   sync.Mutex
	ln   net.Listener
	http *http.Server
}

// New creates a server with no sources attached.
func New() *Server {
	s := &Server{mux: http.NewServeMux()}
	s.src.Store(&Sources{})
	s.mux.HandleFunc("GET /", s.handleIndex)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/sched", s.handleSched)
	s.mux.HandleFunc("GET /debug/trace", s.handleTrace)
	// Go runtime profiling: /debug/pprof/ routes named profiles
	// (heap, allocs, goroutine, block, mutex, …) itself; the four
	// below are special-cased by net/http/pprof and need their own
	// routes. Explicit methods throughout — a method-less pattern
	// would conflict with "GET /" above; symbol also takes POST.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// SetSources re-points the endpoints (atomically; in-flight requests
// finish against the sources they started with).
func (s *Server) SetSources(src Sources) { s.src.Store(&src) }

// Handler returns the route handler (tests drive it via
// httptest without binding a socket).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr and serves in a background goroutine. The
// endpoints are unauthenticated (see the package Security note): addr
// should be a loopback or internal-interface address.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("admin: already started on %s", s.ln.Addr())
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.mux}
	s.mu.Unlock()
	go s.http.Serve(ln)
	return nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and open connections immediately.
func (s *Server) Close() error {
	s.mu.Lock()
	h := s.http
	s.mu.Unlock()
	if h == nil {
		return nil
	}
	return h.Close()
}

// Shutdown stops the server gracefully via http.Server.Shutdown: the
// listener closes immediately (so /readyz probes start failing at the
// connection level), in-flight requests — including a slow /metrics
// scrape or a running CPU profile — drain until ctx expires, and only
// then are remaining connections cut.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	h := s.http
	s.mu.Unlock()
	if h == nil {
		return nil
	}
	return h.Shutdown(ctx)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "icilk admin endpoints:\n"+
		"  /healthz      liveness probe (always 200)\n"+
		"  /readyz       readiness probe (503 when closed or degraded)\n"+
		"  /metrics      Prometheus text exposition\n"+
		"  /debug/sched  scheduler snapshot (JSON)\n"+
		"  /debug/trace  recent scheduler events (JSON, ?n=K)\n"+
		"  /debug/pprof/ Go runtime profiles (heap, profile, goroutine, ...)\n")
}

// handleHealthz is the liveness probe: answering at all is the
// signal, so it is a plain 200 with no source consultation.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "ok\n")
}

// handleReadyz is the readiness probe: 200 only while an attached
// runtime is open and not shedding everything.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	src := s.src.Load()
	if src.Health == nil {
		http.Error(w, "no runtime attached", http.StatusServiceUnavailable)
		return
	}
	h := src.Health()
	if !h.Ready || h.Degraded {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(h)
		return
	}
	writeJSON(w, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	src := s.src.Load()
	if src.Metrics == nil {
		http.Error(w, "no metrics registry attached", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	src.Metrics.WriteTo(w)
}

func (s *Server) handleSched(w http.ResponseWriter, r *http.Request) {
	src := s.src.Load()
	if src.Sched == nil {
		http.Error(w, "no scheduler attached", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, src.Sched())
}

// traceEvent is the JSON rendering of one trace.Event (kind as its
// string name).
type traceEvent struct {
	TS     int64  `json:"ts"`
	Worker int32  `json:"worker"`
	Level  int32  `json:"level"`
	Kind   string `json:"kind"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	src := s.src.Load()
	if src.TraceEvents == nil {
		http.Error(w, "no trace source attached", http.StatusServiceUnavailable)
		return
	}
	evs, enabled := src.TraceEvents()
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		if n < len(evs) {
			evs = evs[len(evs)-n:]
		}
	}
	out := struct {
		Enabled bool         `json:"enabled"`
		Events  []traceEvent `json:"events"`
	}{Enabled: enabled, Events: make([]traceEvent, len(evs))}
	for i, e := range evs {
		out.Events[i] = traceEvent{TS: e.TS, Worker: e.Worker, Level: e.Level, Kind: e.Kind.String()}
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Header already sent; nothing more we can do.
		return
	}
}
