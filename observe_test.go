package icilk_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"icilk"
	"icilk/internal/invariant"
	"icilk/internal/memcached"
	"icilk/internal/netreal"
	"icilk/internal/netsim"
)

// TestRuntimeScrapeAllocFree: a scrape of a runtime's whole registry —
// the scheduler's, I/O handlers', admission's and poller-side network
// counters and a memcached server's request histogram — allocates
// nothing once its render buffer is pooled, and String only the
// string it returns.
func TestRuntimeScrapeAllocFree(t *testing.T) {
	if invariant.Race {
		t.Skip("allocation accounting differs under -race")
	}
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2, Admission: &icilk.AdmissionConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := memcached.NewICilkServer(memcached.NewStore(memcached.StoreConfig{}), rt,
		memcached.ICilkConfig{Metrics: rt.Metrics()})
	defer srv.Close()
	(&netreal.Stats{}).RegisterMetrics(rt.Metrics())

	// One request, so the latency histogram has a sample to bucket.
	cli, sep := netsim.Pipe()
	routine := srv.HandleConn(sep)
	cli.WriteString("set k 0 0 1\r\nv\r\n")
	if line, err := bufio.NewReader(cli).ReadString('\n'); err != nil || line != "STORED\r\n" {
		t.Fatalf("set reply %q, err %v", line, err)
	}
	cli.Close()
	routine.Wait()

	reg := rt.Metrics()
	if !strings.Contains(reg.String(), `icilk_app_request_latency_seconds_count{app="memcached",level="0"} 1`) {
		t.Fatal("scrape is missing the request's latency sample")
	}
	if got := testing.AllocsPerRun(50, func() { reg.WriteTo(io.Discard) }); got != 0 {
		t.Errorf("WriteTo allocates %v objects per scrape, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() { _ = reg.String() }); got > 1 {
		t.Errorf("String allocates %v objects per scrape, want <= 1", got)
	}
}

// TestAdminEndToEnd drives a live memcached server over real TCP
// (netreal) and scrapes the admin endpoint: /metrics must expose the
// scheduler counters and the per-level application latency histogram
// in Prometheus text format, /debug/sched must decode as a scheduler
// snapshot, and /debug/trace must report the event ring.
func TestAdminEndToEnd(t *testing.T) {
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2, TraceCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	store := memcached.NewStore(memcached.StoreConfig{})
	srv := memcached.NewICilkServer(store, rt, memcached.ICilkConfig{Metrics: rt.Metrics()})
	defer srv.Close()

	netStats := &netreal.Stats{}
	netStats.RegisterMetrics(rt.Metrics())

	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	go func() {
		for {
			nc, err := nl.Accept()
			if err != nil {
				return
			}
			srv.HandleConn(netreal.WrapOptions(nc, netreal.Options{Stats: netStats}))
		}
	}()

	adm, err := rt.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()

	// Real client load: a few connections doing sets and gets.
	const conns, opsPerConn = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", nl.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			for i := 0; i < opsPerConn; i++ {
				key := fmt.Sprintf("k%d-%d", c, i)
				fmt.Fprintf(nc, "set %s 0 0 5\r\nhello\r\n", key)
				if line, err := br.ReadString('\n'); err != nil || line != "STORED\r\n" {
					t.Errorf("set reply %q err %v", line, err)
					return
				}
				fmt.Fprintf(nc, "get %s\r\n", key)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						t.Errorf("get reply: %v", err)
						return
					}
					if line == "END\r\n" {
						break
					}
				}
			}
		}(c)
	}
	wg.Wait()

	httpGet := func(path string) string {
		res, err := http.Get("http://" + adm.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, res.StatusCode)
		}
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	body := httpGet("/metrics")
	for _, want := range []string{
		"# TYPE icilk_steals_total counter",
		"# TYPE icilk_mugs_total counter",
		"# TYPE icilk_abandons_total counter",
		"# TYPE icilk_spawns_total counter",
		"# TYPE icilk_app_request_latency_seconds histogram",
		`icilk_app_request_latency_seconds_bucket{app="memcached",level="0",le="+Inf"}`,
		`icilk_nonempty_deques{level="0"}`,
		`icilk_nonempty_deques{level="1"}`,
		"# TYPE icilk_io_completions_total counter",
		"icilk_net_read_bytes_total",
		"# TYPE icilk_net_pool_hits_total counter",
		"# TYPE icilk_net_pool_misses_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The request counter must have counted every set and get.
	m := regexp.MustCompile(`(?m)^icilk_app_requests_total\{app="memcached",level="0"\} (\d+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("/metrics missing memcached request counter:\n%s", body)
	}
	if n, _ := strconv.Atoi(m[1]); n < conns*opsPerConn*2 {
		t.Errorf("icilk_app_requests_total = %d, want >= %d", n, conns*opsPerConn*2)
	}
	// The latency histogram's +Inf bucket must match.
	m = regexp.MustCompile(`(?m)^icilk_app_request_latency_seconds_count\{app="memcached",level="0"\} (\d+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatal("/metrics missing latency histogram count")
	}
	if n, _ := strconv.Atoi(m[1]); n < conns*opsPerConn*2 {
		t.Errorf("latency histogram count = %d, want >= %d", n, conns*opsPerConn*2)
	}

	var snap icilk.SchedSnapshot
	if err := json.Unmarshal([]byte(httpGet("/debug/sched")), &snap); err != nil {
		t.Fatalf("/debug/sched: %v", err)
	}
	if snap.Workers != 2 || snap.LevelCount != 2 || len(snap.PerLevel) != 2 || len(snap.PerWorker) != 2 {
		t.Errorf("snapshot shape: %+v", snap)
	}
	if snap.Policy != "prompt" {
		t.Errorf("policy = %q", snap.Policy)
	}
	if snap.Total.Work <= 0 {
		t.Error("no work time accounted after serving requests")
	}

	var tr struct {
		Enabled bool `json:"enabled"`
		Events  []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(httpGet("/debug/trace?n=10")), &tr); err != nil {
		t.Fatalf("/debug/trace: %v", err)
	}
	if !tr.Enabled {
		t.Error("trace not enabled despite TraceCapacity")
	}
	if len(tr.Events) == 0 {
		t.Error("trace ring empty after serving requests")
	}
}
