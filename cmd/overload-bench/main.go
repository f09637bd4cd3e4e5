// Command overload-bench drives an app server through its QoS knee
// and past it — 0.5×, 1×, 2×, 4× the knee rate by default — once with
// admission control and once without, and records per-class goodput
// (completed within deadline), late and shed counts, and latency
// percentiles as an entry in a JSON trajectory file (BENCH_overload.json
// at the repo root):
//
//	go run ./cmd/overload-bench -label "my change" -o BENCH_overload.json
//
// The experiment it encodes is the paper's overload story completed:
// the scheduler's promptness mechanism keeps high-priority latency low
// while there is slack, and priority-drop admission keeps high-priority
// *goodput* near its isolated maximum past the knee, shedding only the
// low levels. The entry records top-priority goodput at the highest
// multiplier as a fraction of its lowest-multiplier value — with
// priority-drop that ratio stays ≥ 0.9.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"icilk"
	"icilk/internal/admission"
	"icilk/internal/emailserver"
	"icilk/internal/jobserver"
	"icilk/internal/predict"
	"icilk/internal/workload"
	"icilk/internal/xrand"
)

// ClassResult is one request class's outcome at one load point.
type ClassResult struct {
	Class   string  `json:"class"`
	Level   int     `json:"level"`
	Offered int64   `json:"offered"`
	Good    int64   `json:"good"`
	Late    int64   `json:"late"`
	Shed    int64   `json:"shed"`
	Goodput float64 `json:"goodput"` // Good / Offered
	P50ms   float64 `json:"p50_ms"`  // over admitted completions
	P99ms   float64 `json:"p99_ms"`
}

// Run is one load point: the knee multiplier, with or without
// admission control.
type Run struct {
	Mult      float64       `json:"mult"`
	RPS       float64       `json:"rps"`
	Admission bool          `json:"admission"`
	Classes   []ClassResult `json:"classes"`
	// TopGoodput is the aggregate goodput over every class at the
	// highest priority level — the policy-comparison headline.
	TopGoodput float64 `json:"top_goodput"`
}

// topGoodput aggregates good/offered over the classes at the minimum
// level present.
func topGoodput(classes []ClassResult) float64 {
	minLevel := classes[0].Level
	for _, c := range classes {
		if c.Level < minLevel {
			minLevel = c.Level
		}
	}
	var good, offered int64
	for _, c := range classes {
		if c.Level == minLevel {
			good += c.Good
			offered += c.Offered
		}
	}
	if offered == 0 {
		return 0
	}
	return float64(good) / float64(offered)
}

// Entry is one overload-bench invocation.
type Entry struct {
	Label      string  `json:"label"`
	Date       string  `json:"date"`
	App        string  `json:"app"`
	Policy     string  `json:"policy"`
	KneeRPS    float64 `json:"knee_rps"`
	DeadlineMS float64 `json:"deadline_ms"`
	Duration   string  `json:"duration"`
	Workers    int     `json:"workers"`
	Runs       []Run   `json:"runs"`
	// TopGoodputRatio is top-priority goodput at the highest multiplier
	// (admission on) divided by its value at the lowest multiplier —
	// the "high levels stay flat" criterion.
	TopGoodputRatio float64 `json:"top_goodput_ratio"`
}

// File is the committed trajectory: newest entry last.
type File struct {
	Comment string  `json:"_comment"`
	Entries []Entry `json:"entries"`
}

const fileComment = "Goodput-under-overload trajectory; append entries with: go run ./cmd/overload-bench -label <change> -o BENCH_overload.json"

// app abstracts the server under test: class names/levels and a
// submit path with and without admission.
type app struct {
	names  []string
	levels []int
	spread int
	// mix gives per-class arrival weights; nil means uniform.
	mix []float64
	// build creates a fresh runtime+server; submit dispatches one
	// request through admission (adm non-nil) or around it.
	build func(workers int, adm *icilk.AdmissionConfig) (*icilk.Runtime, workload.GoodputSubmitFunc, error)
}

func jobApp() *app {
	return &app{
		names:  []string{"mm", "fib", "sort", "sw"},
		levels: []int{jobserver.LevelMM, jobserver.LevelFib, jobserver.LevelSort, jobserver.LevelSW},
		build: func(workers int, admCfg *icilk.AdmissionConfig) (*icilk.Runtime, workload.GoodputSubmitFunc, error) {
			rt, err := icilk.New(icilk.Config{Workers: workers, Levels: jobserver.Levels, Admission: admCfg})
			if err != nil {
				return nil, nil, err
			}
			srv, err := jobserver.New(rt, jobserver.DefaultConfig())
			if err != nil {
				rt.Close()
				return nil, nil, err
			}
			if admCfg != nil {
				srv.SetAdmission(rt.Admission())
			}
			return rt, func(class, user int, seq int64) (*icilk.Future, error) {
				return srv.TryDo(class, seq)
			}, nil
		},
	}
}

func emailApp() *app {
	const users = 64
	return &app{
		names:  []string{"send", "sort", "print", "comp"},
		levels: []int{emailserver.LevelSend, emailserver.LevelSort, emailserver.LevelPrint, emailserver.LevelCompress},
		spread: users,
		build: func(workers int, admCfg *icilk.AdmissionConfig) (*icilk.Runtime, workload.GoodputSubmitFunc, error) {
			rt, err := icilk.New(icilk.Config{Workers: workers, Levels: emailserver.Levels, Admission: admCfg})
			if err != nil {
				return nil, nil, err
			}
			srv, err := emailserver.New(rt, emailserver.Config{Users: users})
			if err != nil {
				rt.Close()
				return nil, nil, err
			}
			if admCfg != nil {
				srv.SetAdmission(rt.Admission())
			}
			return rt, func(class, user int, seq int64) (*icilk.Future, error) {
				return srv.TryDo(class, user, seq)
			}, nil
		},
	}
}

// synthApp is the size-class synthetic server: two priority levels,
// each with a dominant cheap class and a minority class ~40× as
// expensive (workload.BimodalMix — the bimodal value-size story of a
// cache serving mostly small GETs plus occasional range scans whose
// service time barely fits the deadline even unqueued). The per-class
// service demand is stable, so a service-time predictor has genuine
// signal; requests are submitted with their (opcode, size bucket)
// class and true arrival time, as the memcached frontend does.
func synthApp() *app {
	classes := workload.BimodalMix(2, 200*time.Microsecond, 8*time.Millisecond, 0.1)
	levels := make([]int, len(classes))
	for i, c := range classes {
		levels[i] = c.Level
	}
	return &app{
		names:  workload.ClassNames(classes),
		levels: levels,
		mix:    workload.ClassWeights(classes),
		build: func(workers int, admCfg *icilk.AdmissionConfig) (*icilk.Runtime, workload.GoodputSubmitFunc, error) {
			rt, err := icilk.New(icilk.Config{Workers: workers, Levels: 2, Admission: admCfg})
			if err != nil {
				return nil, nil, err
			}
			adm := rt.Admission()
			return rt, func(class, user int, seq int64) (*icilk.Future, error) {
				c := &classes[class]
				body := func(t *icilk.Task) any {
					workload.SpinService(t, c.Work)
					return nil
				}
				if adm != nil {
					cls := predict.Class{Op: uint8(1 + class), Size: predict.SizeBucket(c.Size)}
					return adm.SubmitClassSince(c.Level, cls, time.Now(), body)
				}
				return rt.Submit(c.Level, body), nil
			}, nil
		},
	}
}

func runOne(a *app, workers int, admCfg *icilk.AdmissionConfig, cfg workload.OpenLoopConfig, deadline time.Duration) ([]ClassResult, error) {
	rt, submit, err := a.build(workers, admCfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	res := workload.RunOpenLoopGoodput(cfg, deadline, submit)
	out := make([]ClassResult, len(a.names))
	for i, name := range a.names {
		c := res.PerClass[i]
		rec := res.Latency.Class(name)
		out[i] = ClassResult{
			Class:   name,
			Level:   a.levels[i],
			Offered: c.Offered(),
			Good:    c.Good,
			Late:    c.Late,
			Shed:    c.Shed,
			Goodput: c.GoodputFraction(),
		}
		if rec.Count() > 0 {
			out[i].P50ms = float64(rec.Percentile(50).Microseconds()) / 1000
			out[i].P99ms = float64(rec.Percentile(99).Microseconds()) / 1000
		}
	}
	return out, nil
}

func main() {
	label := flag.String("label", "", "entry label (e.g. the change being measured); required")
	out := flag.String("o", "", "JSON file to append the entry to (created if missing); stdout if empty")
	appName := flag.String("app", "job", "app to drive: job | email | synth")
	kneeRPS := flag.Float64("knee", 1000, "QoS knee in RPS: the largest rate meeting the QoS (BenchmarkQoSMaxRPS finds it for Memcached)")
	multsFlag := flag.String("mults", "0.5,1,2,4", "knee multipliers to run, comma-separated")
	dur := flag.Duration("dur", 4*time.Second, "measurement duration per load point")
	warmup := flag.Duration("warmup", 500*time.Millisecond, "per-run warmup (load applied, not measured)")
	deadline := flag.Duration("deadline", 20*time.Millisecond, "per-request deadline (goodput bound and cancellation timeout)")
	policyName := flag.String("policy", "priority-drop",
		"admission policies to compare, comma-separated: priority-drop | tail-drop | codel | predictive")
	queueCap := flag.Int("queuecap", 16, "per-level admission capacity")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "scheduler workers")
	withOff := flag.Bool("off", true, "also run each load point without admission control")
	seed := flag.Uint64("seed", 42, "workload seed")
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "overload-bench: -label is required (what is being measured?)")
		os.Exit(2)
	}
	var policies []admission.Policy
	for _, s := range strings.Split(*policyName, ",") {
		policy, err := admission.ParsePolicy(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "overload-bench: %v\n", err)
			os.Exit(2)
		}
		policies = append(policies, policy)
	}
	var a *app
	switch *appName {
	case "job":
		a = jobApp()
	case "email":
		a = emailApp()
	case "synth":
		a = synthApp()
	default:
		fmt.Fprintf(os.Stderr, "overload-bench: unknown app %q (job|email|synth)\n", *appName)
		os.Exit(2)
	}
	var mults []float64
	for _, s := range strings.Split(*multsFlag, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || m <= 0 {
			fmt.Fprintf(os.Stderr, "overload-bench: bad multiplier %q\n", s)
			os.Exit(2)
		}
		mults = append(mults, m)
	}

	loMult, hiMult := mults[0], mults[0]
	for _, m := range mults {
		if m < loMult {
			loMult = m
		}
		if m > hiMult {
			hiMult = m
		}
	}
	var entries []Entry
	for pi, policy := range policies {
		entry := Entry{
			Label:      *label,
			Date:       time.Now().UTC().Format("2006-01-02"),
			App:        *appName,
			Policy:     policy.String(),
			KneeRPS:    *kneeRPS,
			DeadlineMS: float64(deadline.Microseconds()) / 1000,
			Duration:   dur.String(),
			Workers:    *workers,
		}
		admCfg := &icilk.AdmissionConfig{
			Policy:   policy,
			QueueCap: *queueCap,
			Timeout:  *deadline,
		}
		for multIndex, mult := range mults {
			rps := *kneeRPS * mult
			cfg := workload.OpenLoopConfig{
				RPS:        rps,
				Duration:   *warmup + *dur,
				Warmup:     *warmup,
				Mix:        make([]float64, len(a.names)),
				ClassNames: a.names,
				// Each load point draws a distinct deterministic arrival
				// schedule, but policy rows at the same multiplier see an
				// identical one (the mix is outside this loop), so
				// cross-policy deltas in the smoke comparison are never
				// sampling noise from a shared-seed schedule reused at a
				// different rate.
				Seed:   xrand.Mix(*seed, uint64(multIndex+1)),
				Spread: a.spread,
			}
			for i := range cfg.Mix {
				cfg.Mix[i] = 1
				if a.mix != nil {
					cfg.Mix[i] = a.mix[i]
				}
			}
			configs := []struct {
				adm *icilk.AdmissionConfig
				on  bool
			}{{admCfg, true}}
			// The no-admission baseline is policy-independent: run it
			// with the first policy's entry only.
			if *withOff && pi == 0 {
				configs = append(configs, struct {
					adm *icilk.AdmissionConfig
					on  bool
				}{nil, false})
			}
			for _, c := range configs {
				mode := "admission=" + policy.String()
				if !c.on {
					mode = "admission=off"
				}
				fmt.Fprintf(os.Stderr, "%.1fx knee (%.0f rps), %s ...\n", mult, rps, mode)
				classes, err := runOne(a, *workers, c.adm, cfg, *deadline)
				if err != nil {
					fmt.Fprintf(os.Stderr, "overload-bench: %v\n", err)
					os.Exit(1)
				}
				for _, cr := range classes {
					fmt.Fprintf(os.Stderr, "  %-8s L%d goodput %5.1f%%  good %6d late %6d shed %6d  p99 %8.2fms\n",
						cr.Class, cr.Level, 100*cr.Goodput, cr.Good, cr.Late, cr.Shed, cr.P99ms)
				}
				entry.Runs = append(entry.Runs, Run{
					Mult: mult, RPS: rps, Admission: c.on,
					Classes: classes, TopGoodput: topGoodput(classes),
				})
			}
		}

		// The headline number: top-priority goodput at the highest
		// multiplier relative to the lowest, admission on.
		var loGood, hiGood float64
		for _, r := range entry.Runs {
			if !r.Admission {
				continue
			}
			if r.Mult == loMult {
				loGood = r.Classes[0].Goodput
			}
			if r.Mult == hiMult {
				hiGood = r.Classes[0].Goodput
			}
		}
		if loGood > 0 {
			entry.TopGoodputRatio = hiGood / loGood
		}
		fmt.Fprintf(os.Stderr, "[%s] top-priority goodput at %.1fx / %.1fx = %.3f\n",
			policy, hiMult, loMult, entry.TopGoodputRatio)
		entries = append(entries, entry)
	}

	// Multi-policy comparison: aggregate top-priority goodput per load
	// point, side by side.
	if len(policies) > 1 {
		fmt.Fprintln(os.Stderr, "top-priority goodput by policy:")
		for _, mult := range mults {
			fmt.Fprintf(os.Stderr, "  %4.1fx:", mult)
			for pi, policy := range policies {
				for _, r := range entries[pi].Runs {
					if r.Admission && r.Mult == mult {
						fmt.Fprintf(os.Stderr, "  %s %5.1f%%", policy, 100*r.TopGoodput)
					}
				}
			}
			fmt.Fprintln(os.Stderr)
		}
	}

	var f File
	if *out != "" {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &f); err != nil {
				fmt.Fprintf(os.Stderr, "overload-bench: %s exists but is not valid JSON: %v\n", *out, err)
				os.Exit(1)
			}
		}
	}
	f.Comment = fileComment
	f.Entries = append(f.Entries, entries...)
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "overload-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "appended %q to %s\n", *label, *out)
}
