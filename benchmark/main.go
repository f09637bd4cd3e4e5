// Command benchmark is this repository's performance yardstick: four
// fixed workloads over the icilk runtime and its memcached and job
// servers, ten end-to-end metrics measured with tracing off, and a
// separate traced run that attributes cost to each layer from outside
// it. README.md in this directory has the tables; BENCHMARK.json at
// the repository root is the contract a driver reads.
//
//	bash benchmark/run.sh --workload mc_tcp --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh                       # every workload, once
//	bash benchmark/run.sh compare dirA dirB     # two sets of result files
//	bash benchmark/run.sh golden                # regenerate golden_jobserver.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"icilk/internal/invariant"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 30

func nproc() int { return runtime.NumCPU() }

// workloadNames in the order they are run and reported.
var workloadNames = []string{"mc_tcp", "mc_tcp_write", "sched_mixed", "job_levels"}

// newWorkload holds the pinned constants of every workload. Rates are
// requests per second; they were chosen so nominal sits at or above
// 1/8 of this box's saturation rate and high near 3/8.
func newWorkload(name string) (workload, error) {
	switch name {
	case "mc_tcp":
		return newMC(name, mcConfig{keys: 1 << 12, valueLen: 64, zipf: 1.1, setFrac: 0.10},
			phaseRates{warm: 30_000, nominal: 30_000, high: 60_000}, 10*time.Millisecond), nil
	case "mc_tcp_write":
		cfg := mcConfig{keys: 1 << 16, valueLen: 4 << 10, setFrac: 0.50, mgetFrac: 0.10}
		cfg.maxBytes = int64(cfg.keys) * int64(cfg.valueLen) / 2 // half the working set: eviction on the hot path
		return newMC(name, cfg, phaseRates{warm: 10_000, nominal: 10_000, high: 20_000}, 20*time.Millisecond), nil
	case "sched_mixed":
		return newMixed(phaseRates{warm: 2_000, nominal: 2_000, high: 6_000}), nil
	case "job_levels":
		return newJobs(phaseRates{warm: 4_000, nominal: 4_000, high: 8_000}), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// hostFacts go into every result: numbers from different hosts, Go
// versions or build modes are not comparable.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	BuildTags  string `json:"build_tags"`
	// KeepAwake: the SCHED_IDLE spinners were running (see
	// keepawake_linux.go). Runs with and without are not comparable.
	KeepAwake bool `json:"keep_awake"`
}

func (h hostFacts) String() string {
	return fmt.Sprintf("nproc %d  GOMAXPROCS %d  %s  linux %s  %s  commit %s  tags %q  keep_awake %v",
		h.NProc, h.GOMAXPROCS, h.Go, h.Kernel, h.CPU, h.Commit, h.BuildTags, h.KeepAwake)
}

func host(keepAwake bool) hostFacts {
	h := hostFacts{KeepAwake: keepAwake, NProc: nproc(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: "unknown", CPU: "unknown", Commit: gitCommit()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				h.BuildTags = s.Value
			}
		}
	}
	return h
}

// gitCommit reads the checked-out commit without running git; a
// driver's checkout is not a repository, and then it is "unknown".
func gitCommit() string {
	for _, dir := range []string{".git", "../.git"} {
		head, err := os.ReadFile(dir + "/HEAD")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(head))
		ref, ok := strings.CutPrefix(s, "ref: ")
		if !ok {
			return s
		}
		if b, err := os.ReadFile(dir + "/" + ref); err == nil {
			return strings.TrimSpace(string(b))
		}
		if packed, err := os.ReadFile(dir + "/packed-refs"); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
					return sha
				}
			}
		}
	}
	return "unknown"
}

func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "keepawake":
			keepAwakeMain()
			return
		case "golden":
			g, err := computeGolden()
			if err != nil {
				fatal(err)
			}
			data, _ := json.MarshalIndent(g, "", " ")
			fmt.Println(string(data))
			return
		}
	}
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", ")+"; empty runs each in its own process")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the request schedule")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "measured length of the run, split over its phases")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the layer probes")
	flag.BoolVar(&cfg.smoke, "smoke", false, "1.5-second run, probes capped at 1000 iterations; checks the harness, not the system")
	flag.StringVar(&cfg.outDir, "out", defaultOutDir(), "directory for the result and trace files")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.smoke {
		cfg.seconds = smokeSeconds
	}
	if flag.NArg() > 0 || cfg.seconds <= 0 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if raceEnabled || invariant.Enabled {
		fatal(fmt.Errorf("refusing to measure a -race or icilk_debug build"))
	}
	if runtime.GOMAXPROCS(0) != nproc() {
		fatal(fmt.Errorf("GOMAXPROCS is %d but the host has %d CPUs; unset GOMAXPROCS", runtime.GOMAXPROCS(0), nproc()))
	}
	if cfg.workload == "" {
		os.Exit(runAll(cfg, trace))
	}

	stopKeepAwake, awake := startKeepAwake()
	cfg.keepAwake = awake
	res, err := runWorkload(cfg)
	stopKeepAwake()
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if miss := res.missing(); len(miss) > 0 {
		fatal(fmt.Errorf("metrics missing or not finite: %s", strings.Join(miss, ", ")))
	}
	path, err := res.write(cfg.outDir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result file: %s\n", path)
	line, err := res.driverLine()
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(append(line, '\n'))
	if float64(res.Failed) > 0.001*float64(res.Attempted) {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// smokeSeconds is the run length -smoke substitutes.
const smokeSeconds = 1.5

// runAll runs every workload in a child process of its own, so that
// peak memory and allocation counts are each workload's alone.
func runAll(cfg runConfig, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	status := 0
	for _, name := range workloadNames {
		args := []string{"--workload", name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
			"--trace", fmt.Sprint(trace), "--out", cfg.outDir}
		if cfg.smoke {
			args = append(args, "--smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
