// memcached-bench regenerates the paper's Memcached experiments:
//
//	Figure 1: p99 latency vs RPS — pthread vs Adaptive I-Cilk
//	          (best-of-sweep) vs Prompt I-Cilk.
//	Figure 2: average number of non-empty deques per quantum vs RPS
//	          (Adaptive I-Cilk).
//	Figure 3: p95 and p99 latency vs RPS for pthread, Prompt, and all
//	          Adaptive variants (each best-of-parameter-sweep).
//	Figure 4: data-path saturation — offered load far above capacity,
//	          so achieved RPS measures the byte-path ceiling, reported
//	          with the process-wide allocation profile (allocs/op,
//	          bytes/op). With -label/-o the measurement is appended to
//	          a JSON trajectory file (BENCH_datapath.json).
//
// -connsweep runs the real-socket connection-scaling sweep instead: at
// each connection count it saturates a loopback TCP server under both
// readiness transports (per-connection pump goroutines vs the shared
// epoll poller) and reports achieved RPS, p99, allocs/op, and
// server-side syscalls/op. With -label/-o the rows are appended to the
// trajectory file's conns_sweep section.
//
// RPS values are scaled for the host this runs on; pass -rps to
// override. The paper's qualitative expectations are printed beside
// the measurements (see EXPERIMENTS.md for the comparison record).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"icilk"
	"icilk/internal/bench"
	"icilk/internal/netpoll"
	"icilk/internal/netreal"
)

func main() {
	fig := flag.Int("fig", 3, "figure to regenerate (1, 2, 3, or 4)")
	rpsList := flag.String("rps", "500,1000,1500,2000", "comma-separated RPS points (fig 4 default: one saturating point)")
	label := flag.String("label", "", "fig 4: JSON trajectory entry label")
	out := flag.String("o", "", "fig 4: JSON trajectory file to append to (stdout table only if empty)")
	dur := flag.Duration("dur", 1500*time.Millisecond, "measurement window per point")
	conns := flag.Int("conns", 64, "client connections")
	workers := flag.Int("workers", 4, "server worker threads")
	quick := flag.Bool("quick", false, "2-point parameter sweep instead of 4")
	seed := flag.Uint64("seed", 0xcafe, "workload seed")
	reps := flag.Int("reps", 1, "repetitions per point (median by p99 reported)")
	admin := flag.String("admin", "", "admin HTTP address (bind loopback, e.g. 127.0.0.1:6060; unauthenticated); follows the current run's runtime")
	connSweepList := flag.String("connsweep", "", "comma-separated connection counts (e.g. 256,1024,4096): run the real-socket transport sweep instead of a figure")
	flag.Parse()

	if *admin != "" {
		adm := icilk.NewAdminServer()
		if err := adm.Start(*admin); err != nil {
			fmt.Fprintln(os.Stderr, "admin:", err)
			os.Exit(1)
		}
		defer adm.Close()
		bench.OnRuntime = func(rt *icilk.Runtime) { rt.AttachAdmin(adm) }
		fmt.Printf("# admin endpoint on http://%s\n", adm.Addr())
	}

	if *fig == 4 || *connSweepList != "" {
		// Saturating default: the point of fig 4 (and the conns sweep)
		// is the ceiling, not a latency curve.
		rpsSet := false
		flag.Visit(func(f *flag.Flag) { rpsSet = rpsSet || f.Name == "rps" })
		if !rpsSet {
			*rpsList = "300000"
		}
	}

	var rps []float64
	for _, s := range strings.Split(*rpsList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -rps %q: %v\n", s, err)
			os.Exit(2)
		}
		rps = append(rps, v)
	}
	sweep := bench.DefaultSweep()
	if *quick {
		sweep = bench.QuickSweep()
	}
	opt := func(r float64) bench.MemcachedOptions {
		return bench.MemcachedOptions{
			Workers: *workers, Connections: *conns, RPS: r,
			Duration: *dur, Seed: *seed, Reps: *reps,
		}
	}

	if *connSweepList != "" {
		connSweep(*connSweepList, rps[0], opt, *label, *out)
		return
	}

	switch *fig {
	case 1:
		fig1(rps, sweep, opt)
	case 2:
		fig2(rps, sweep, opt)
	case 3:
		fig3(rps, sweep, opt)
	case 4:
		fig4(rps, opt, *label, *out)
	default:
		fmt.Fprintln(os.Stderr, "-fig must be 1, 2, 3, or 4")
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func fig1(rps []float64, sweep []icilk.AdaptiveParams, opt func(float64) bench.MemcachedOptions) {
	fmt.Println("# Figure 1: Memcached p99 latency vs RPS")
	fmt.Println("# Paper expectation: Adaptive I-Cilk >> pthread ~ Prompt I-Cilk (lower is better);")
	fmt.Println("# Prompt matches or beats pthread, Adaptive is far worse at every load.")
	fmt.Printf("%10s %14s %14s %14s\n", "RPS", "pthread", "adaptive", "prompt")
	for _, r := range rps {
		pt, err := bench.RunMemcachedPthread(opt(r))
		check(err)
		ad, _, err := bench.BestMemcached(bench.Spec{Name: "adaptive", Kind: icilk.Adaptive, Sweep: sweep}, opt(r))
		check(err)
		pr, err := bench.RunMemcachedICilk(icilk.Prompt, icilk.AdaptiveParams{}, opt(r))
		check(err)
		fmt.Printf("%10.0f %s %s %s\n", r,
			bench.Fmt(pt.Latency.Percentile(99)),
			bench.Fmt(ad.Latency.Percentile(99)),
			bench.Fmt(pr.Latency.Percentile(99)))
	}
}

func fig2(rps []float64, sweep []icilk.AdaptiveParams, opt func(float64) bench.MemcachedOptions) {
	fmt.Println("# Figure 2: average non-empty deques per quantum (Adaptive I-Cilk, Memcached)")
	fmt.Println("# Paper expectation: hundreds of non-empty deques even at moderate load,")
	fmt.Println("# growing with RPS — far more deques than workers.")
	fmt.Printf("%10s %16s %16s\n", "RPS", "deques(level0)", "deques(level1)")
	for _, r := range rps {
		run, err := bench.RunMemcachedICilk(icilk.Adaptive, sweep[0], opt(r))
		check(err)
		d0, d1 := run.AvgNonEmptyDeques[0], run.AvgNonEmptyDeques[1]
		fmt.Printf("%10.0f %16.1f %16.1f\n", r, d0, d1)
	}
}

// datapathEntry is one fig-4 measurement in the committed trajectory
// (BENCH_datapath.json): newest entry last, one result per server.
type datapathEntry struct {
	Label   string                    `json:"label"`
	Date    string                    `json:"date"`
	Config  string                    `json:"config"`
	Results map[string]datapathResult `json:"results"`
}

type datapathResult struct {
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
}

type datapathFile struct {
	Comment    string           `json:"_comment"`
	Entries    []datapathEntry  `json:"entries"`
	ConnsSweep []connSweepEntry `json:"conns_sweep,omitempty"`
}

// connSweepEntry is one -connsweep measurement set: the real-socket
// transport comparison across connection counts.
type connSweepEntry struct {
	Label  string         `json:"label"`
	Date   string         `json:"date"`
	Config string         `json:"config"`
	Rows   []connSweepRow `json:"rows"`
}

type connSweepRow struct {
	Conns           int     `json:"conns"`
	Transport       string  `json:"transport"`
	OfferedRPS      float64 `json:"offered_rps"`
	AchievedRPS     float64 `json:"achieved_rps"`
	P50Us           float64 `json:"p50_us"`
	P99Us           float64 `json:"p99_us"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	SyscallsPerOp   float64 `json:"syscalls_per_op"`
	SysReadsPerOp   float64 `json:"sys_reads_per_op"`
	SysWritesPerOp  float64 `json:"sys_writes_per_op"`
	EpollWaitsPerOp float64 `json:"epoll_waits_per_op"`
}

const datapathComment = "Memcached data-path trajectory (saturation throughput + allocation profile); append entries with: go run ./cmd/memcached-bench -fig 4 -label <change> -o BENCH_datapath.json"

func fig4(rps []float64, opt func(float64) bench.MemcachedOptions, label, out string) {
	fmt.Println("# Figure 4: data-path saturation throughput and allocation profile")
	fmt.Println("# Offered load is far above capacity; achieved RPS is the byte-path ceiling.")
	fmt.Println("# allocs/op and bytes/op are process-wide (client + server share the process).")
	entry := datapathEntry{
		Label:   label,
		Date:    time.Now().UTC().Format("2006-01-02"),
		Results: make(map[string]datapathResult),
	}
	fmt.Printf("%10s %-10s %12s %12s %12s %10s %10s\n",
		"RPS", "server", "achieved", "allocs/op", "bytes/op", "p50", "p99")
	for _, r := range rps {
		o := opt(r)
		entry.Config = fmt.Sprintf("conns=%d workers=%d dur=%s value=64B get=0.9",
			o.Connections, o.Workers, o.Duration)
		pt, err := bench.RunMemcachedPthread(o)
		check(err)
		pr, err := bench.RunMemcachedICilk(icilk.Prompt, icilk.AdaptiveParams{}, o)
		check(err)
		for _, row := range []struct {
			name string
			run  *bench.Run
		}{{"pthread", pt}, {"prompt", pr}} {
			achieved := float64(row.run.Completed) / row.run.Elapsed.Seconds()
			fmt.Printf("%10.0f %-10s %12.0f %12.1f %12.0f %s %s\n",
				r, row.name, achieved, row.run.AllocsPerOp, row.run.BytesPerOp,
				bench.Fmt(row.run.Latency.Percentile(50)),
				bench.Fmt(row.run.Latency.Percentile(99)))
			entry.Results[row.name] = datapathResult{
				OfferedRPS:  r,
				AchievedRPS: achieved,
				AllocsPerOp: row.run.AllocsPerOp,
				BytesPerOp:  row.run.BytesPerOp,
				P50Us:       float64(row.run.Latency.Percentile(50)) / float64(time.Microsecond),
				P99Us:       float64(row.run.Latency.Percentile(99)) / float64(time.Microsecond),
			}
		}
	}
	if out == "" {
		return
	}
	if label == "" {
		fmt.Fprintln(os.Stderr, "-o requires -label (what is being measured?)")
		os.Exit(2)
	}
	var file datapathFile
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			fmt.Fprintf(os.Stderr, "parse %s: %v\n", out, err)
			os.Exit(1)
		}
	}
	file.Comment = datapathComment
	file.Entries = append(file.Entries, entry)
	data, err := json.MarshalIndent(&file, "", "  ")
	check(err)
	check(os.WriteFile(out, append(data, '\n'), 0o644))
	fmt.Printf("# appended %q to %s\n", label, out)
}

// connSweep runs the real-socket transport comparison: each
// connection count is saturated under the per-connection pump and
// (where built) the shared epoll poller, on the Prompt scheduler.
func connSweep(connsList string, offered float64, opt func(float64) bench.MemcachedOptions, label, out string) {
	var counts []int
	for _, s := range strings.Split(connsList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "bad -connsweep %q\n", s)
			os.Exit(2)
		}
		counts = append(counts, v)
	}
	transports := []struct {
		name string
		mode netreal.Mode
	}{{"pump", netreal.ModePump}}
	if netpoll.Supported {
		transports = append(transports, struct {
			name string
			mode netreal.Mode
		}{"poll", netreal.ModePoll})
	}
	fmt.Println("# Connection sweep: real loopback TCP, pump vs shared-poller transport")
	fmt.Println("# Offered load saturates; syscalls/op is server-side (read+write+epoll).")
	entry := connSweepEntry{Label: label, Date: time.Now().UTC().Format("2006-01-02")}
	fmt.Printf("%8s %-6s %10s %10s %10s %8s %7s %7s %7s\n",
		"conns", "mode", "achieved", "p99", "allocs/op", "sys/op", "rd/op", "wr/op", "wait/op")
	for _, c := range counts {
		o := opt(offered)
		o.Connections = c
		entry.Config = fmt.Sprintf("workers=%d dur=%s value=64B get=0.9", o.Workers, o.Duration)
		for _, tr := range transports {
			run, err := bench.RunMemcachedNet(icilk.Prompt, icilk.AdaptiveParams{},
				bench.NetMemcachedOptions{MemcachedOptions: o, Mode: tr.mode})
			check(err)
			achieved := float64(run.Completed) / run.Elapsed.Seconds()
			fmt.Printf("%8d %-6s %10.0f %s %10.1f %8.2f %7.2f %7.2f %7.3f\n",
				c, tr.name, achieved, bench.Fmt(run.Latency.Percentile(99)),
				run.AllocsPerOp, run.SyscallsPerOp, run.SysReadsPerOp,
				run.SysWritesPerOp, run.EpollWaitsPerOp)
			entry.Rows = append(entry.Rows, connSweepRow{
				Conns: c, Transport: tr.name, OfferedRPS: offered,
				AchievedRPS:   achieved,
				P50Us:         float64(run.Latency.Percentile(50)) / float64(time.Microsecond),
				P99Us:         float64(run.Latency.Percentile(99)) / float64(time.Microsecond),
				AllocsPerOp:   run.AllocsPerOp,
				SyscallsPerOp: run.SyscallsPerOp, SysReadsPerOp: run.SysReadsPerOp,
				SysWritesPerOp: run.SysWritesPerOp, EpollWaitsPerOp: run.EpollWaitsPerOp,
			})
		}
	}
	if out == "" {
		return
	}
	if label == "" {
		fmt.Fprintln(os.Stderr, "-o requires -label (what is being measured?)")
		os.Exit(2)
	}
	var file datapathFile
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			fmt.Fprintf(os.Stderr, "parse %s: %v\n", out, err)
			os.Exit(1)
		}
	}
	file.Comment = datapathComment
	file.ConnsSweep = append(file.ConnsSweep, entry)
	data, err := json.MarshalIndent(&file, "", "  ")
	check(err)
	check(os.WriteFile(out, append(data, '\n'), 0o644))
	fmt.Printf("# appended conns sweep %q to %s\n", label, out)
}

func fig3(rps []float64, sweep []icilk.AdaptiveParams, opt func(float64) bench.MemcachedOptions) {
	fmt.Println("# Figure 3: Memcached p95/p99 latency vs RPS, all schedulers")
	fmt.Println("# Paper expectation: Prompt, Adaptive+aging, AdaptiveGreedy track pthread")
	fmt.Println("# (beating it at high RPS on p99); plain Adaptive is far worse — the aging")
	fmt.Println("# heuristic is the crucial difference. AdaptiveGreedy can edge out Prompt at")
	fmt.Println("# the highest RPS (promptness costs a little there).")
	specs := bench.Schedulers(sweep)
	fmt.Printf("%10s %-16s %14s %14s\n", "RPS", "scheduler", "p95", "p99")
	for _, r := range rps {
		pt, err := bench.RunMemcachedPthread(opt(r))
		check(err)
		fmt.Printf("%10.0f %-16s %s %s\n", r, "pthread",
			bench.Fmt(pt.Latency.Percentile(95)), bench.Fmt(pt.Latency.Percentile(99)))
		for _, spec := range specs {
			best, all, err := bench.BestMemcached(spec, opt(r))
			check(err)
			fmt.Printf("%10.0f %-16s %s %s", r, spec.Name,
				bench.Fmt(best.Latency.Percentile(95)), bench.Fmt(best.Latency.Percentile(99)))
			if len(all) > 1 {
				fmt.Printf("   (best of %d params: q=%v d=%.2f r=%.0f)",
					len(all), best.Params.Quantum, best.Params.Delta, best.Params.Rho)
			}
			fmt.Println()
		}
	}
}
