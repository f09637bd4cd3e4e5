// Package bench is the shared harness behind bench_test.go's figure
// benchmarks: it runs each application (Memcached, email server, job
// server) under each scheduler, performs the Adaptive-variant
// parameter searches the paper describes, and returns the measurements
// the figures plot (latency percentiles, waste/running time, deque
// counts).
package bench

import (
	"time"

	"icilk"
	"icilk/internal/emailserver"
	"icilk/internal/jobserver"
	"icilk/internal/memcached"
	"icilk/internal/netsim"
	"icilk/internal/stats"
	"icilk/internal/workload"
)

const (
	// workers is the server thread count of every run: the paper's
	// Memcached and email-server setup (its job server used 20 cores).
	workers = 4
	// samplePeriod is the deque-count sampler's quantum (Figure 2).
	samplePeriod = 2 * time.Millisecond
	// memcachedSeed seeds the Memcached key/op stream.
	memcachedSeed = 0xcafe
)

// Spec names one scheduler configuration to benchmark.
type Spec struct {
	Name string
	Kind icilk.Scheduler
	// Sweep is the set of runtime parameters to try (Adaptive
	// variants only); the best point by tail latency is reported, as
	// in the paper. Empty for Prompt.
	Sweep []icilk.AdaptiveParams
}

// DefaultSweep returns the parameter grid used for the Adaptive
// variants. The paper tries 3-5 parameter sets per benchmark and
// reports the best; this grid spans quantum length and the
// grow/shrink aggressiveness of the allocator.
func DefaultSweep() []icilk.AdaptiveParams {
	return []icilk.AdaptiveParams{
		{Quantum: 1 * time.Millisecond, Delta: 0.5, Rho: 2},
		{Quantum: 2 * time.Millisecond, Delta: 0.75, Rho: 2},
		{Quantum: 5 * time.Millisecond, Delta: 0.75, Rho: 2},
		{Quantum: 2 * time.Millisecond, Delta: 0.5, Rho: 4},
	}
}

// QuickSweep is a 2-point sweep for fast runs.
func QuickSweep() []icilk.AdaptiveParams {
	return DefaultSweep()[:2]
}

// Schedulers returns the benchmark specs: Prompt and the three
// Adaptive variants, each variant with the given sweep.
func Schedulers(sweep []icilk.AdaptiveParams) []Spec {
	return []Spec{
		{Name: "prompt", Kind: icilk.Prompt},
		{Name: "adaptive", Kind: icilk.Adaptive, Sweep: sweep},
		{Name: "adaptive+aging", Kind: icilk.AdaptiveAging, Sweep: sweep},
		{Name: "adaptive-greedy", Kind: icilk.AdaptiveGreedy, Sweep: sweep},
	}
}

// Run is one measured execution.
type Run struct {
	Spec    Spec
	Params  icilk.AdaptiveParams // zero for Prompt/pthread
	Latency *stats.Recorder      // aggregate
	PerOp   *stats.MultiRecorder // per class, when applicable
	Waste   stats.WasteReport
	// AvgNonEmptyDeques is the Figure 2 quantity, sampled per quantum
	// at each level.
	AvgNonEmptyDeques []float64
	Completed         int64
	Errors            int64
}

// sampleDeques starts one non-empty-deque sampler per level of rt; the
// returned function stops them and gives each level's mean.
func sampleDeques(rt *icilk.Runtime, levels int) (stop func() []float64) {
	samplers := make([]*stats.Sampler, levels)
	for l := range samplers {
		l := l
		samplers[l] = stats.NewSampler(samplePeriod, func() float64 {
			return float64(rt.NonEmptyDeques(l))
		})
		samplers[l].Start()
	}
	return func() []float64 {
		means := make([]float64, levels)
		for l, s := range samplers {
			s.Stop()
			means[l] = s.Mean()
		}
		return means
	}
}

// MemcachedOptions configures a Memcached load point.
type MemcachedOptions struct {
	Connections int // 0 = 64
	RPS         float64
	Duration    time.Duration // 0 = 1s
	// Warmup precedes the measured window (0 = Duration/3).
	Warmup time.Duration
}

// workload returns the load generator's configuration for o.
func (o MemcachedOptions) workload() memcached.WorkloadConfig {
	if o.Connections <= 0 {
		o.Connections = 64
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Duration / 3
	}
	return memcached.WorkloadConfig{
		Connections: o.Connections, RPS: o.RPS, Duration: o.Duration,
		Seed: memcachedSeed, Warmup: o.Warmup,
	}
}

// memcachedLevels: requests at level 0, background crawler at 1.
const memcachedLevels = 2

// RunMemcachedICilk measures one (scheduler, params, RPS) Memcached
// point on the task-parallel port.
func RunMemcachedICilk(kind icilk.Scheduler, params icilk.AdaptiveParams, opt MemcachedOptions) (*Run, error) {
	rt, err := icilk.New(icilk.Config{
		Workers: workers, Levels: memcachedLevels, Scheduler: kind, Adaptive: params,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	store := memcached.NewStore(memcached.StoreConfig{})
	wcfg := opt.workload()
	memcached.Preload(store, wcfg)
	srv := memcached.NewICilkServer(store, rt, memcached.ICilkConfig{})
	ln := netsim.NewListener()
	go srv.Serve(ln)
	defer func() { ln.Close(); srv.Close() }()

	rt.ResetWaste()
	stop := sampleDeques(rt, memcachedLevels)
	res, err := memcached.RunLoad(ln, wcfg)
	deques := stop()
	if err != nil {
		return nil, err
	}
	return &Run{
		Params: params, Latency: res.Latency, Waste: rt.WasteReport(),
		AvgNonEmptyDeques: deques, Completed: res.Completed, Errors: res.Errors,
	}, nil
}

// RunMemcachedPthread measures one Memcached point on the baseline.
func RunMemcachedPthread(opt MemcachedOptions) (*Run, error) {
	store := memcached.NewStore(memcached.StoreConfig{})
	wcfg := opt.workload()
	memcached.Preload(store, wcfg)
	srv := memcached.NewPthreadServer(store, memcached.PthreadConfig{Workers: workers})
	ln := netsim.NewListener()
	go srv.Serve(ln)
	defer func() { ln.Close(); srv.Close() }()

	res, err := memcached.RunLoad(ln, wcfg)
	if err != nil {
		return nil, err
	}
	return &Run{Latency: res.Latency, Completed: res.Completed, Errors: res.Errors}, nil
}

// BestMemcached searches the spec's parameters at one RPS and returns
// the run with the best p99 (the paper's selection criterion for
// Memcached), plus every swept run.
func BestMemcached(spec Spec, opt MemcachedOptions) (*Run, []*Run, error) {
	params := spec.Sweep
	if len(params) == 0 {
		params = []icilk.AdaptiveParams{{}}
	}
	var best *Run
	var all []*Run
	for _, p := range params {
		r, err := RunMemcachedICilk(spec.Kind, p, opt)
		if err != nil {
			return nil, nil, err
		}
		r.Spec = spec
		all = append(all, r)
		if best == nil || r.Latency.Percentile(99) < best.Latency.Percentile(99) {
			best = r
		}
	}
	return best, all, nil
}

// ServerOptions configures an email- or job-server load point.
type ServerOptions struct {
	RPS      float64
	Duration time.Duration // 0 = 1s
	Seed     uint64        // 0 = 0xbeef
	// Warmup precedes the measured window (0 = Duration/3).
	Warmup time.Duration
}

func (o *ServerOptions) defaults() {
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 0xbeef
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Duration / 3
	}
}

// runServer abstracts the email/job server run shape.
func runServer(kind icilk.Scheduler, params icilk.AdaptiveParams, opt ServerOptions,
	levels int, mix []float64, names []string, spread int,
	mkSubmit func(rt *icilk.Runtime) (workload.SubmitFunc, error)) (*Run, error) {

	opt.defaults()
	rt, err := icilk.New(icilk.Config{Workers: workers, Levels: levels, Scheduler: kind, Adaptive: params})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	submit, err := mkSubmit(rt)
	if err != nil {
		return nil, err
	}
	rt.ResetWaste()
	stop := sampleDeques(rt, levels)
	res := workload.RunOpenLoop(workload.OpenLoopConfig{
		RPS: opt.RPS, Duration: opt.Duration, Mix: mix,
		ClassNames: names, Seed: opt.Seed, Spread: spread,
		Warmup: opt.Warmup,
	}, submit)
	return &Run{
		Params: params, Latency: res.All, PerOp: res.PerClass,
		Waste: rt.WasteReport(), AvgNonEmptyDeques: stop(), Completed: res.Sent,
	}, nil
}

// RunEmail measures one email-server point. Mix follows the paper's
// operation set: send-heavy with periodic sort/compress/print.
func RunEmail(kind icilk.Scheduler, params icilk.AdaptiveParams, opt ServerOptions) (*Run, error) {
	return runServer(kind, params, opt, emailserver.Levels,
		[]float64{5, 2, 2, 2}, emailserver.OpNames, 32,
		func(rt *icilk.Runtime) (workload.SubmitFunc, error) {
			srv, err := emailserver.New(rt, emailserver.Config{Users: 32})
			if err != nil {
				return nil, err
			}
			return func(class, user int, seq int64) *icilk.Future {
				return srv.Do(class, user, seq)
			}, nil
		})
}

// RunJob measures one job-server point with a uniform class mix (the
// four parallel kernels at SJF priorities).
func RunJob(kind icilk.Scheduler, params icilk.AdaptiveParams, opt ServerOptions) (*Run, error) {
	return runServer(kind, params, opt, jobserver.Levels,
		[]float64{1, 1, 1, 1}, jobserver.OpNames, 0,
		func(rt *icilk.Runtime) (workload.SubmitFunc, error) {
			srv, err := jobserver.New(rt, jobserver.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return func(class, user int, seq int64) *icilk.Future {
				return srv.Do(class, seq)
			}, nil
		})
}

// RunJobCfg runs the job server under a fully caller-specified
// runtime configuration (ablation knobs like DisableMuggingQueue).
// cfg.Levels is forced to the job server's requirement.
func RunJobCfg(cfg icilk.Config, opt ServerOptions) (*Run, error) {
	opt.defaults()
	cfg.Levels = jobserver.Levels
	if cfg.Workers <= 0 {
		cfg.Workers = workers
	}
	rt, err := icilk.New(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	srv, err := jobserver.New(rt, jobserver.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rt.ResetWaste()
	res := workload.RunOpenLoop(workload.OpenLoopConfig{
		RPS: opt.RPS, Duration: opt.Duration, Mix: []float64{1, 1, 1, 1},
		ClassNames: jobserver.OpNames, Seed: opt.Seed, Warmup: opt.Warmup,
	}, func(class, user int, seq int64) *icilk.Future {
		return srv.Do(class, seq)
	})
	return &Run{
		Latency: res.All, PerOp: res.PerClass, Waste: rt.WasteReport(),
		Completed: res.Sent,
	}, nil
}

// BestServer searches parameters for a spec on the given runner,
// choosing the best by the paper's criterion for the email and job
// servers: the average of the 95th and 99th percentile latencies.
func BestServer(spec Spec, opt ServerOptions,
	runner func(icilk.Scheduler, icilk.AdaptiveParams, ServerOptions) (*Run, error)) (*Run, []*Run, error) {
	params := spec.Sweep
	if len(params) == 0 {
		params = []icilk.AdaptiveParams{{}}
	}
	score := func(r *Run) time.Duration {
		return (r.Latency.Percentile(95) + r.Latency.Percentile(99)) / 2
	}
	var best *Run
	var all []*Run
	for _, p := range params {
		r, err := runner(spec.Kind, p, opt)
		if err != nil {
			return nil, nil, err
		}
		r.Spec = spec
		all = append(all, r)
		if best == nil || score(r) < score(best) {
			best = r
		}
	}
	return best, all, nil
}
