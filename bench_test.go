package icilk_test

// bench_test.go holds one testing.B benchmark per table/figure of the
// paper (reporting the figure's quantities via b.ReportMetric), the
// ablation benchmarks for the design choices called out in DESIGN.md,
// and microbenchmarks of the scheduler substrate.
//
// Figures 1–6 and the QoS search regenerate from here and nowhere
// else. Each operating point is a sub-benchmark; -benchtime 1x
// measures one window per point and -count repeats it:
//
//	go test -run '^$' -bench BenchmarkFig3 -benchtime 1x -timeout 0 .
//
// -short runs only the first point of each figure, at benchDur.

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"icilk"
	"icilk/internal/bench"
	"icilk/internal/deque"
	"icilk/internal/emailserver"
	"icilk/internal/epoch"
	"icilk/internal/fifoq"
	"icilk/internal/jobserver"
	"icilk/internal/prio"
	"icilk/internal/stats"
	"icilk/internal/workload"
	"icilk/internal/xrand"
)

// benchDur is every figure's window under -short.
const benchDur = 400 * time.Millisecond

// window returns a figure's measurement window: the one its recorded
// results used, or benchDur under -short.
func window(full time.Duration) time.Duration {
	if testing.Short() {
		return benchDur
	}
	return full
}

// eachPoint runs one sub-benchmark per operating point (under -short
// the first only), measuring the point once per b.N.
func eachPoint(b *testing.B, rps []float64, measure func(b *testing.B, rps float64)) {
	if testing.Short() {
		rps = rps[:1]
	}
	for _, r := range rps {
		b.Run(fmt.Sprintf("rps=%g", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				measure(b, r)
			}
		})
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// must fails b on a run's error: must(b)(bench.RunJob(...)).
func must(b *testing.B) func(*bench.Run, error) *bench.Run {
	return func(r *bench.Run, err error) *bench.Run {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
}

// logParams records which point of an Adaptive variant's sweep won.
func logParams(b *testing.B, best *bench.Run) {
	p := best.Params
	b.Logf("%s: best of %d params: q=%v d=%.2f r=%.0f", best.Spec.Name, len(best.Spec.Sweep), p.Quantum, p.Delta, p.Rho)
}

// reportMemcached measures one Memcached point on the pthread baseline
// and on each spec (best of its sweep by p99), reporting the given
// latency percentiles of each.
func reportMemcached(b *testing.B, opt bench.MemcachedOptions, specs []bench.Spec, pcts ...float64) {
	report := func(name string, r *bench.Run) {
		for _, p := range pcts {
			b.ReportMetric(us(r.Latency.Percentile(p)), fmt.Sprintf("%s-p%g-us", name, p))
		}
	}
	report("pthread", must(b)(bench.RunMemcachedPthread(opt)))
	for _, spec := range specs {
		best, _, err := bench.BestMemcached(spec, opt)
		report(spec.Name, must(b)(best, err))
		if len(spec.Sweep) > 0 {
			logParams(b, best)
		}
	}
}

// BenchmarkFig1MemcachedP99 reproduces Figure 1: Memcached p99 vs RPS
// under pthread, Adaptive I-Cilk (best of DefaultSweep) and Prompt
// I-Cilk. Paper: Adaptive far above pthread ≈ Prompt at every load.
func BenchmarkFig1MemcachedP99(b *testing.B) {
	specs := []bench.Spec{
		{Name: "adaptive", Kind: icilk.Adaptive, Sweep: bench.DefaultSweep()},
		{Name: "prompt", Kind: icilk.Prompt},
	}
	eachPoint(b, []float64{400, 800, 1200, 1600}, func(b *testing.B, rps float64) {
		reportMemcached(b, bench.MemcachedOptions{RPS: rps, Duration: window(1500 * time.Millisecond)}, specs, 99)
	})
}

// BenchmarkFig2DequeCounts reproduces Figure 2: the average number of
// non-empty deques per quantum at each level under Adaptive I-Cilk on
// Memcached with 256 connections. Paper: far more than workers, growing
// with load.
func BenchmarkFig2DequeCounts(b *testing.B) {
	eachPoint(b, []float64{1000, 2000, 3000, 4500}, func(b *testing.B, rps float64) {
		opt := bench.MemcachedOptions{Connections: 256, RPS: rps, Duration: window(1500 * time.Millisecond)}
		run := must(b)(bench.RunMemcachedICilk(icilk.Adaptive, bench.DefaultSweep()[0], opt))
		b.ReportMetric(run.AvgNonEmptyDeques[0], "deques-level0")
		b.ReportMetric(run.AvgNonEmptyDeques[1], "deques-level1")
	})
}

// BenchmarkFig3MemcachedVariants reproduces Figure 3: Memcached p95/p99
// vs RPS for pthread and all four I-Cilk schedulers, the Adaptive
// variants best of QuickSweep. Paper: the aging-capable schedulers
// track pthread; plain Adaptive is far worse.
func BenchmarkFig3MemcachedVariants(b *testing.B) {
	eachPoint(b, []float64{400, 800, 1200, 1600}, func(b *testing.B, rps float64) {
		opt := bench.MemcachedOptions{RPS: rps, Duration: window(1500 * time.Millisecond)}
		reportMemcached(b, opt, bench.Schedulers(bench.QuickSweep()), 95, 99)
	})
}

// reportVsPrompt measures one server point under Prompt and under each
// Adaptive variant (best of DefaultSweep by the paper's (p95+p99)/2
// criterion), reporting Prompt's per-class statistics (named from
// p95, p99, mean, p50) in microseconds and each variant's as a ratio to
// Prompt's (> 1: Prompt wins).
func reportVsPrompt(b *testing.B, opt bench.ServerOptions, classes []string,
	runner func(icilk.Scheduler, icilk.AdaptiveParams, bench.ServerOptions) (*bench.Run, error), names ...string) {
	stat := func(r *bench.Run, class, name string) time.Duration {
		s := r.PerOp.Class(class).Summarize()
		return map[string]time.Duration{"p95": s.P95, "p99": s.P99, "mean": s.Mean, "p50": s.Median}[name]
	}
	prompt := must(b)(runner(icilk.Prompt, icilk.AdaptiveParams{}, opt))
	for _, class := range classes {
		for _, name := range names {
			b.ReportMetric(us(stat(prompt, class, name)), "prompt-"+class+"-"+name+"-us")
		}
	}
	for _, spec := range bench.Schedulers(bench.DefaultSweep())[1:] {
		best, _, err := bench.BestServer(spec, opt, runner)
		must(b)(best, err)
		for _, class := range classes {
			for _, name := range names {
				if pr := stat(prompt, class, name); pr > 0 {
					b.ReportMetric(float64(stat(best, class, name))/float64(pr), spec.Name+"-"+class+"-"+name+"/prompt")
				}
			}
		}
		logParams(b, best)
	}
}

// BenchmarkFig4JobServer reproduces Figure 4: job-server p95/p99 per
// class (mm, fib, sort, sw at SJF priorities), every Adaptive variant
// normalised to Prompt. Paper: Prompt ≤ 1.0 across the board, the gap
// growing with load and priority.
func BenchmarkFig4JobServer(b *testing.B) {
	eachPoint(b, []float64{30, 40, 50}, func(b *testing.B, rps float64) {
		opt := bench.ServerOptions{RPS: rps, Duration: window(3 * time.Second)}
		reportVsPrompt(b, opt, jobserver.OpNames, bench.RunJob, "p95", "p99")
	})
}

// BenchmarkFig5EmailServer reproduces Figure 5: email-server p95/p99
// (top row) and mean/median (bottom row) per operation, every Adaptive
// variant normalised to Prompt. Paper: Prompt wins the tails; the
// medians can favour the Adaptive variants at low load.
func BenchmarkFig5EmailServer(b *testing.B) {
	eachPoint(b, []float64{250, 500, 800}, func(b *testing.B, rps float64) {
		opt := bench.ServerOptions{RPS: rps, Duration: window(2500 * time.Millisecond)}
		reportVsPrompt(b, opt, emailserver.OpNames, bench.RunEmail, "p95", "p99", "mean", "p50")
	})
}

// BenchmarkFig6Waste reproduces Figure 6: waste and running time of
// Adaptive vs Prompt on each of the three applications, with the event
// counts behind them. Paper: Prompt's running time slightly higher, its
// waste much lower.
func BenchmarkFig6Waste(b *testing.B) {
	dur := window(3 * time.Second)
	params := bench.DefaultSweep()[1]
	for _, app := range []struct {
		name string
		run  func(icilk.Scheduler) (*bench.Run, error)
	}{
		{"memcached", func(k icilk.Scheduler) (*bench.Run, error) {
			return bench.RunMemcachedICilk(k, params, bench.MemcachedOptions{RPS: 1000, Duration: dur})
		}},
		{"job", func(k icilk.Scheduler) (*bench.Run, error) {
			return bench.RunJob(k, params, bench.ServerOptions{RPS: 40, Duration: dur})
		}},
		{"email", func(k icilk.Scheduler) (*bench.Run, error) {
			return bench.RunEmail(k, params, bench.ServerOptions{RPS: 600, Duration: dur})
		}},
	} {
		b.Run(app.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, kind := range []icilk.Scheduler{icilk.Adaptive, icilk.Prompt} {
					w := must(b)(app.run(kind)).Waste
					k := kind.String() + "-"
					b.ReportMetric(us(w.Running()), k+"running-us")
					b.ReportMetric(us(w.Work), k+"work-us")
					b.ReportMetric(us(w.Waste), k+"waste-us")
					b.ReportMetric(float64(w.Steals), k+"steals")
					b.ReportMetric(float64(w.Muggings), k+"mugs")
					b.ReportMetric(float64(w.FailedSteals), k+"failed-steals")
					b.ReportMetric(float64(w.Sleeps), k+"sleeps")
					b.ReportMetric(float64(w.Abandons), k+"abandons")
				}
			}
		})
	}
}

// BenchmarkQoSMaxRPS runs the paper's operating-point search (Palit et
// al.'s criterion): the largest Memcached RPS with 95% of requests
// within 10 ms, binary-searched over [200, 6000] RPS in 7 probes of
// 1.2 s. Under -short it probes the floor only. Paper: Prompt sustains
// the pthread baseline's load, Adaptive does not.
func BenchmarkQoSMaxRPS(b *testing.B) {
	iters := 7
	if testing.Short() {
		iters = 0
	}
	for _, server := range []struct {
		name string
		run  func(bench.MemcachedOptions) (*bench.Run, error)
	}{
		{"pthread", bench.RunMemcachedPthread},
		{"prompt", func(o bench.MemcachedOptions) (*bench.Run, error) {
			return bench.RunMemcachedICilk(icilk.Prompt, icilk.AdaptiveParams{}, o)
		}},
		{"adaptive", func(o bench.MemcachedOptions) (*bench.Run, error) {
			return bench.RunMemcachedICilk(icilk.Adaptive, bench.DefaultSweep()[1], o)
		}},
	} {
		b.Run(server.name, func(b *testing.B) {
			probe := func(rps float64) *stats.Recorder {
				r := must(b)(server.run(bench.MemcachedOptions{RPS: rps, Duration: window(1200 * time.Millisecond)}))
				b.Logf("probe rps=%6.0f -> p95=%v", rps, r.Latency.Percentile(95))
				return r.Latency
			}
			for i := 0; i < b.N; i++ {
				maxRPS := workload.FindMaxRPS(200, 6000, iters, workload.PercentileUnder(95, 10*time.Millisecond), probe)
				b.ReportMetric(maxRPS, "max-rps")
			}
		})
	}
}

// ---- Goodput under overload (beyond the paper's figures) ------------

// request describes one arrival at a server: its priority level and
// its task body.
type request func(class, user int, seq int64) (int, func(*icilk.Task) any)

// overloadApp is one server driven past its QoS knee. knee is the
// highest rate at which every class keeps goodput >= 0.99 within
// deadline (goodput bound and admission timeout) on GOMAXPROCS workers
// without admission, found with workload.FindMaxRPS on a 2-vCPU guest
// (EXPERIMENTS.md, "Goodput under overload"); queueCap is the per-level
// admission cap.
type overloadApp struct {
	name          string
	knee          float64
	deadline, dur time.Duration // dur: a full-length point's window
	queueCap      int
	classes       []string
	levels        []int // per class
	spread        int
	mix           []float64
	serve         func(*testing.B, *icilk.Runtime) request
}

func overloadApps() []overloadApp {
	// Per level a dominant cheap class and a minority class ~40x as
	// expensive.
	synth := workload.BimodalMix(2, 200*time.Microsecond, 8*time.Millisecond, 0.1)
	return []overloadApp{
		{"job", 1150, 20 * time.Millisecond, 4 * time.Second, 16, jobserver.OpNames, []int{0, 1, 2, 3}, 0, []float64{1, 1, 1, 1},
			func(b *testing.B, rt *icilk.Runtime) request {
				srv, err := jobserver.New(rt, jobserver.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				return func(class, _ int, seq int64) (int, func(*icilk.Task) any) {
					return srv.Job(class, seq)
				}
			}},
		{"email", 3850, 20 * time.Millisecond, 4 * time.Second, 16, emailserver.OpNames, []int{0, 1, 2, 2}, 64, []float64{1, 1, 1, 1},
			func(b *testing.B, rt *icilk.Runtime) request {
				srv, err := emailserver.New(rt, emailserver.Config{Users: 64})
				if err != nil {
					b.Fatal(err)
				}
				return srv.Request
			}},
		{"synth", 145, 10 * time.Millisecond, 3 * time.Second, 64, workload.ClassNames(synth), []int{0, 0, 1, 1}, 0, workload.ClassWeights(synth),
			func(*testing.B, *icilk.Runtime) request {
				return func(class, _ int, _ int64) (int, func(*icilk.Task) any) {
					c := &synth[class]
					return c.Level, func(t *icilk.Task) any {
						workload.SpinService(t, c.Work)
						return nil
					}
				}
			}},
	}
}

// BenchmarkOverload drives each app at 0.5x, 1x, 2x and 4x its QoS
// knee, uncontrolled and under priority-drop admission, both on the
// same arrival schedule at a given rate. It reports each class's fractions
// of post-warmup arrivals that were good (done within the deadline),
// late (done past it, or cancelled by it) and shed, and top-goodput,
// the good fraction over the level-0 classes. Expected: with
// priority-drop, the job server's top-goodput at 4x stays >= 0.9 of
// its 0.5x value while the low levels shed.
func BenchmarkOverload(b *testing.B) {
	warmup := 500 * time.Millisecond
	if testing.Short() {
		warmup = 100 * time.Millisecond
	}
	for _, app := range overloadApps() {
		for _, adm := range []*icilk.AdmissionConfig{nil, {QueueCap: app.queueCap, Timeout: app.deadline}} {
			name := "off"
			if adm != nil {
				name = "priority-drop"
			}
			b.Run(app.name+"/"+name, func(b *testing.B) {
				eachPoint(b, []float64{app.knee / 2, app.knee, 2 * app.knee, 4 * app.knee}, func(b *testing.B, rps float64) {
					rt, err := icilk.New(icilk.Config{Workers: runtime.GOMAXPROCS(0), Levels: slices.Max(app.levels) + 1, Admission: adm})
					if err != nil {
						b.Fatal(err)
					}
					defer rt.Close()
					req := app.serve(b, rt)
					cfg := workload.OpenLoopConfig{RPS: rps, Duration: warmup + window(app.dur), Warmup: warmup,
						Mix: app.mix, ClassNames: app.classes, Seed: xrand.Mix(42, uint64(rps)), Spread: app.spread}
					res := workload.RunOpenLoopGoodput(cfg, app.deadline, func(class, user int, seq int64) (*icilk.Future, error) {
						level, fn := req(class, user, seq)
						if adm == nil {
							return rt.Submit(level, fn), nil
						}
						return rt.Admission().Submit(level, fn)
					})
					var top workload.ClassGoodput
					for i, c := range res.PerClass {
						name, off := app.classes[i], float64(max(c.Offered(), 1))
						b.ReportMetric(float64(c.Good)/off, name+"-goodput")
						b.ReportMetric(float64(c.Late)/off, name+"-late")
						b.ReportMetric(float64(c.Shed)/off, name+"-shed")
						if app.levels[i] == 0 {
							top.Good, top.Late, top.Shed = top.Good+c.Good, top.Late+c.Late, top.Shed+c.Shed
						}
						b.Logf("%-8s good %6d late %6d shed %6d p99 %v", name, c.Good, c.Late, c.Shed, res.Latency.Class(name).Percentile(99))
					}
					b.ReportMetric(top.GoodputFraction(), "top-goodput")
				})
			})
		}
	}
}

// ---- Ablations (DESIGN.md "Design choices worth ablating") ----------

// BenchmarkAblationMuggingQueue compares Prompt with and without the
// dedicated mugging queue on the job server: disabling it de-ages
// abandoned deques, hurting tail latency of the lower priorities. The
// effect is ~10% on the low-priority tail — below single-window noise
// on a timeshared host — so each side is the median of three runs
// over the combined low-priority classes (sort+sw p95).
func BenchmarkAblationMuggingQueue(b *testing.B) {
	run := func(disable bool) (time.Duration, error) {
		vals := make([]time.Duration, 3)
		for rep := range vals {
			r, err := bench.RunJobCfg(icilk.Config{
				Workers: 4, Scheduler: icilk.Prompt, DisableMuggingQueue: disable,
			}, bench.ServerOptions{RPS: 45, Duration: 800 * time.Millisecond, Seed: uint64(rep + 1)})
			if err != nil {
				return 0, err
			}
			vals[rep] = (r.PerOp.Class("sw").Percentile(95) + r.PerOp.Class("sort").Percentile(95)) / 2
		}
		if vals[0] > vals[1] {
			vals[0], vals[1] = vals[1], vals[0]
		}
		if vals[1] > vals[2] {
			vals[1], vals[2] = vals[2], vals[1]
		}
		if vals[0] > vals[1] {
			vals[0], vals[1] = vals[1], vals[0]
		}
		return vals[1], nil
	}
	for i := 0; i < b.N; i++ {
		with, err := run(false)
		if err != nil {
			b.Fatal(err)
		}
		without, err := run(true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(with.Microseconds()), "with-mugq-lowprio-p95-us")
		b.ReportMetric(float64(without.Microseconds()), "without-mugq-lowprio-p95-us")
	}
}

// benchPool replicates the Adaptive deque-pool structure (mutex +
// slice + index map with arbitrary removal) for the pool ablation.
type benchPool struct {
	mu     chan struct{} // 1-slot mutex to keep this self-contained
	deques []*deque.Deque
	index  map[*deque.Deque]int
}

func newBenchPool() *benchPool {
	p := &benchPool{mu: make(chan struct{}, 1), index: make(map[*deque.Deque]int)}
	p.mu <- struct{}{}
	return p
}

func (p *benchPool) add(d *deque.Deque) {
	<-p.mu
	p.index[d] = len(p.deques)
	p.deques = append(p.deques, d)
	p.mu <- struct{}{}
}

func (p *benchPool) remove(d *deque.Deque) {
	<-p.mu
	if i, ok := p.index[d]; ok {
		last := len(p.deques) - 1
		p.deques[i] = p.deques[last]
		p.index[p.deques[i]] = i
		p.deques = p.deques[:last]
		delete(p.index, d)
	}
	p.mu <- struct{}{}
}

// BenchmarkAblationCentralVsRandomPool isolates the pool data
// structures: throughput of deque hand-off through Prompt's lock-free
// FIFO vs an Adaptive-style locked random-access pool.
func BenchmarkAblationCentralVsRandomPool(b *testing.B) {
	b.Run("central-fifo", func(b *testing.B) {
		col := epoch.NewCollector()
		q := fifoq.New[*deque.Deque](col)
		p := col.Register()
		d := deque.New(0, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(p, d)
			q.Dequeue(p)
		}
	})
	b.Run("locked-pool", func(b *testing.B) {
		// The Adaptive structure: slice + index map under a mutex,
		// insert and arbitrary removal.
		pool := newBenchPool()
		d := deque.New(0, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.add(d)
			pool.remove(d)
		}
	})
}

// ---- Substrate microbenchmarks --------------------------------------

func BenchmarkFifoQueueEnqueueDequeue(b *testing.B) {
	col := epoch.NewCollector()
	q := fifoq.New[*int](col)
	p := col.Register()
	v := 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p, &v)
		q.Dequeue(p)
	}
}

func BenchmarkDequePushPopBottom(b *testing.B) {
	d := deque.New(0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PushBottom(i)
		d.PopBottom()
	}
}

func BenchmarkBitfieldCheck(b *testing.B) {
	bf := prio.New()
	bf.Set(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.HigherThan(5)
	}
}

func BenchmarkSpawnSync(b *testing.B) {
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	b.ResetTimer()
	rt.Run(func(t *icilk.Task) any {
		for i := 0; i < b.N; i++ {
			t.Spawn(func(*icilk.Task) {})
			t.Sync()
		}
		return nil
	})
}

func BenchmarkFutureCreateGet(b *testing.B) {
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	b.ResetTimer()
	rt.Run(func(t *icilk.Task) any {
		for i := 0; i < b.N; i++ {
			f := t.FutCreate(0, func(*icilk.Task) any { return i })
			f.Get(t)
		}
		return nil
	})
}

func BenchmarkSubmitWait(b *testing.B) {
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Submit(0, func(*icilk.Task) any { return nil }).Wait()
	}
}

// BenchmarkPromptReactionTime quantifies promptness directly: the
// latency of a high-priority request submitted while every worker
// grinds low-priority work. Prompt reacts at the next scheduling
// point (microseconds); the quantum-based AdaptiveGreedy reacts at
// the next reallocation (a quantum, here 2ms) — the mechanism behind
// the paper's Figure 4 high-priority gaps.
func BenchmarkPromptReactionTime(b *testing.B) {
	for _, cfg := range []struct {
		name string
		kind icilk.Scheduler
	}{
		{"prompt", icilk.Prompt},
		{"adaptive-greedy", icilk.AdaptiveGreedy},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			rt, err := icilk.New(icilk.Config{
				Workers: 2, Levels: 2, Scheduler: cfg.kind,
				Adaptive: icilk.AdaptiveParams{Quantum: 2 * time.Millisecond, Delta: 0.5, Rho: 2},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			stop := make(chan struct{})
			var spinners []*icilk.Future
			for i := 0; i < 2; i++ {
				spinners = append(spinners, rt.Submit(1, func(t *icilk.Task) any {
					for {
						select {
						case <-stop:
							return nil
						default:
							t.Yield()
						}
					}
				}))
			}
			time.Sleep(5 * time.Millisecond) // let the spinners settle
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				rt.Submit(0, func(*icilk.Task) any { return nil }).Wait()
				total += time.Since(t0)
			}
			b.StopTimer()
			close(stop)
			for _, f := range spinners {
				f.Wait()
			}
			b.ReportMetric(float64(total.Microseconds())/float64(b.N), "reaction-us")
		})
	}
}
