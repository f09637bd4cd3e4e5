// memcached-server runs the task-parallel Memcached port on a real
// TCP (or unix) socket, speaking the standard memcached text protocol
// — try it with `nc` or any memcached client:
//
//	go run ./cmd/memcached-server -listen 127.0.0.1:11211 &
//	printf 'set k 0 0 5\r\nhello\r\nget k\r\nquit\r\n' | nc 127.0.0.1 11211
//
// Flags select the scheduler, so the same binary serves as a live
// playground for comparing Prompt I-Cilk against the Adaptive
// variants under real client load.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"time"

	"icilk"
	"icilk/internal/memcached"
	"icilk/internal/netpoll"
	"icilk/internal/netreal"
	"icilk/internal/stats"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:11211", "listen address (host:port)")
	network := flag.String("net", "tcp", "network (tcp, unix)")
	workers := flag.Int("workers", 4, "scheduler workers")
	schedName := flag.String("scheduler", "prompt", icilk.SchedulerNames())
	maxBytes := flag.Int64("max-bytes", 64<<20, "cache size bound (0 = unbounded)")
	adminAddr := flag.String("admin", "", "admin HTTP address (bind loopback, e.g. 127.0.0.1:6060; unauthenticated) serving /metrics, /debug/sched, /debug/trace")
	flag.Parse()

	kind, err := icilk.ParseScheduler(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rt, err := icilk.New(icilk.Config{Workers: *workers, Levels: 2, Scheduler: kind})
	if err != nil {
		fmt.Fprintln(os.Stderr, "runtime:", err)
		os.Exit(1)
	}
	store := memcached.NewStore(memcached.StoreConfig{MaxBytes: *maxBytes})
	hist := stats.NewHistogram()
	srv := memcached.NewICilkServer(store, rt, memcached.ICilkConfig{
		ServiceHistogram: hist,
		Metrics:          rt.Metrics(),
	})
	if *adminAddr != "" {
		netreal.DefaultStats.RegisterMetrics(rt.Metrics())
		netpoll.PollStats.RegisterMetrics(rt.Metrics())
		adm, err := rt.ServeAdmin(*adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "admin:", err)
			os.Exit(1)
		}
		defer adm.Close()
		fmt.Printf("admin endpoint on http://%s (/metrics, /debug/sched, /debug/trace)\n", adm.Addr())
	}

	nl, err := net.Listen(*network, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Printf("memcached (icilk %s scheduler, %d workers) listening on %s\n",
		kind, *workers, nl.Addr())

	srv.StartCrawler()
	// The shared pollers complete each pass's futures themselves,
	// through the runtime's batcher.
	wrapOpts := netreal.Options{Batcher: rt.IOBatcher()}
	go func() {
		for {
			nc, err := nl.Accept()
			if err != nil {
				return
			}
			srv.HandleConn(netreal.WrapOptions(nc, wrapOpts))
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	ticker := time.NewTicker(10 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("\nshutting down")
			nl.Close()
			srv.Close()
			rt.Close()
			return
		case <-ticker.C:
			fmt.Printf("conns=%d items=%d hits=%d misses=%d service{%v}\n",
				srv.ActiveConns(), store.Len(),
				store.Stats.GetHits.Load(), store.Stats.GetMisses.Load(), hist)
		}
	}
}
