package admin

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"icilk/internal/metrics"
	"icilk/internal/trace"
)

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	return res, string(body)
}

func TestEndpointsUnavailableWithoutSources(t *testing.T) {
	s := New(Sources{})
	for _, path := range []string{"/metrics", "/debug/sched", "/debug/trace"} {
		res, _ := get(t, s.Handler(), path)
		if res.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s = %d, want 503", path, res.StatusCode)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("icilk_test_total", "help").Add(3)
	s := New(Sources{Metrics: reg})
	res, body := get(t, s.Handler(), "/metrics")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(body, "icilk_test_total 3\n") {
		t.Errorf("body missing counter:\n%s", body)
	}
}

func TestSchedEndpoint(t *testing.T) {
	s := New(Sources{Sched: func() any {
		return map[string]any{"policy": "prompt", "bitfield": 5}
	}})
	res, body := get(t, s.Handler(), "/debug/sched")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if got["policy"] != "prompt" || got["bitfield"] != float64(5) {
		t.Errorf("decoded %v", got)
	}
}

func TestTraceEndpoint(t *testing.T) {
	evs := []trace.Event{
		{TS: 1, Worker: 0, Level: 0, Kind: trace.Steal},
		{TS: 2, Worker: 1, Level: 1, Kind: trace.Mug},
		{TS: 3, Worker: 2, Level: 0, Kind: trace.Abandon},
	}
	s := New(Sources{TraceEvents: func() ([]trace.Event, bool) { return evs, true }})

	decode := func(body string) (bool, []traceEvent) {
		var out struct {
			Enabled bool         `json:"enabled"`
			Events  []traceEvent `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, body)
		}
		return out.Enabled, out.Events
	}

	_, body := get(t, s.Handler(), "/debug/trace")
	enabled, all := decode(body)
	if !enabled || len(all) != 3 {
		t.Fatalf("enabled=%v events=%d, want true/3", enabled, len(all))
	}
	if all[0].Kind != "steal" || all[1].Kind != "mug" || all[2].Kind != "abandon" {
		t.Errorf("kinds = %v %v %v", all[0].Kind, all[1].Kind, all[2].Kind)
	}

	// ?n keeps the most recent events.
	_, body = get(t, s.Handler(), "/debug/trace?n=1")
	if _, last := decode(body); len(last) != 1 || last[0].TS != 3 {
		t.Errorf("?n=1 returned %v", last)
	}

	res, _ := get(t, s.Handler(), "/debug/trace?n=bogus")
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", res.StatusCode)
	}
}

func TestTraceDisabled(t *testing.T) {
	s := New(Sources{TraceEvents: func() ([]trace.Event, bool) { return nil, false }})
	_, body := get(t, s.Handler(), "/debug/trace")
	var out struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled {
		t.Error("enabled=true for a runtime without a trace")
	}
}

func TestPprofEndpoint(t *testing.T) {
	s := New(Sources{})
	// pprof works with no sources attached — it reads the Go runtime.
	res, body := get(t, s.Handler(), "/debug/pprof/")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", res.StatusCode)
	}
	for _, profile := range []string{"heap", "allocs", "goroutine"} {
		if !strings.Contains(body, profile) {
			t.Errorf("pprof index missing %q profile:\n%s", profile, body)
		}
	}
	res, _ = get(t, s.Handler(), "/debug/pprof/goroutine?debug=1")
	if res.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/goroutine = %d, want 200", res.StatusCode)
	}
	res, _ = get(t, s.Handler(), "/debug/pprof/cmdline")
	if res.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline = %d, want 200", res.StatusCode)
	}
}

func TestStartAddrClose(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("icilk_live_total", "").Inc()
	s := New(Sources{Metrics: reg})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Start("127.0.0.1:0"); err == nil {
		t.Error("second Start did not fail")
	}
	res, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), "icilk_live_total 1\n") {
		t.Errorf("live scrape missing counter:\n%s", body)
	}
}

func TestHealthzAlwaysOK(t *testing.T) {
	s := New(Sources{})
	// Liveness never consults sources.
	res, body := get(t, s.Handler(), "/healthz")
	if res.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("GET /healthz = %d %q, want 200 ok", res.StatusCode, body)
	}
}

func TestReadyzStates(t *testing.T) {
	// No runtime attached: not ready.
	res, _ := get(t, New(Sources{}).Handler(), "/readyz")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unattached /readyz = %d, want 503", res.StatusCode)
	}

	var h Health
	s := New(Sources{Health: func() Health { return h }})

	h = Health{Ready: true}
	res, body := get(t, s.Handler(), "/readyz")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ready /readyz = %d, want 200 (%s)", res.StatusCode, body)
	}

	h = Health{Ready: true, Degraded: true, Detail: "shedding everything"}
	res, body = get(t, s.Handler(), "/readyz")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /readyz = %d, want 503", res.StatusCode)
	}
	var got Health
	if err := json.Unmarshal([]byte(body), &got); err != nil || !got.Degraded {
		t.Fatalf("degraded body %q (err %v)", body, err)
	}

	h = Health{Ready: false, Detail: "runtime closed"}
	res, _ = get(t, s.Handler(), "/readyz")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed /readyz = %d, want 503", res.StatusCode)
	}
}

func TestShutdownGraceful(t *testing.T) {
	s := New(Sources{Metrics: metrics.NewRegistry()})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if _, err := http.Get("http://" + addr + "/healthz"); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
	// Shutdown on an unstarted server is a no-op.
	if err := New(Sources{}).Shutdown(context.Background()); err != nil {
		t.Fatalf("unstarted Shutdown: %v", err)
	}
}
