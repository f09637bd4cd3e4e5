// Package bench is the shared harness behind the cmd/ benchmark
// binaries: it runs each application (Memcached, email server, job
// server) under each scheduler, performs the Adaptive-variant
// parameter searches the paper describes, and returns the measurements
// the figures plot (latency percentiles, waste/running time, deque
// counts).
package bench

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"icilk"
	"icilk/internal/emailserver"
	"icilk/internal/jobserver"
	"icilk/internal/memcached"
	"icilk/internal/netpoll"
	"icilk/internal/netreal"
	"icilk/internal/netsim"
	"icilk/internal/stats"
	"icilk/internal/workload"
)

// OnRuntime, when non-nil, is called with every runtime the harness
// creates, right after construction. The benchmark binaries use it to
// re-point a long-lived admin server (-admin flag) at the current
// run's runtime, so /metrics and /debug/sched stay live across a
// sweep of short-lived runtimes.
var OnRuntime func(rt *icilk.Runtime)

func notifyRuntime(rt *icilk.Runtime) {
	if OnRuntime != nil {
		OnRuntime(rt)
	}
}

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

// Schedulers returns the benchmark specs: Prompt, the three Adaptive
// variants (with sweep), and optionally only a subset.
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
	Elapsed           time.Duration
	Completed         int64
	Errors            int64
	// AllocsPerOp / BytesPerOp are process-wide heap allocation counts
	// per completed request over the whole load run (client and server
	// combined — both sides of the byte path are in this process).
	AllocsPerOp float64
	BytesPerOp  float64
	// SyscallsPerOp is the server-side data-path syscall count per
	// completed request (read + write + epoll_wait + epoll_ctl), with
	// the read/write/epoll_wait components broken out; populated only
	// by RunMemcachedNet (real sockets). Client-side syscalls go
	// through the Go runtime poller and are not counted.
	SyscallsPerOp   float64
	SysReadsPerOp   float64
	SysWritesPerOp  float64
	EpollWaitsPerOp float64
}

// measureAllocs wraps fn with runtime.MemStats sampling and charges
// the allocation deltas to run at completed-request granularity.
func measureAllocs(completed func() int64, fn func() error) (allocsPerOp, bytesPerOp float64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err = fn()
	runtime.ReadMemStats(&ms1)
	if n := completed(); n > 0 {
		allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
		bytesPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
	}
	return allocsPerOp, bytesPerOp, err
}

// MemcachedOptions configures a Memcached load point.
type MemcachedOptions struct {
	Workers     int
	IOThreads   int
	Connections int
	RPS         float64
	Duration    time.Duration
	KeySpace    int
	ValueSize   int
	GetFraction float64
	Seed        uint64
	// Warmup precedes the measured window (0 = Duration/3).
	Warmup time.Duration
	// SamplePeriod for the deque-count sampler (0 = 2ms).
	SamplePeriod time.Duration
	// Reps repeats each measurement and keeps the median-by-p99 run
	// (0/1 = single run). Environmental stalls on shared hosts make
	// single short windows noisy; the medians stabilize the figures.
	Reps int
}

func (o *MemcachedOptions) defaults() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.IOThreads <= 0 {
		o.IOThreads = 4
	}
	if o.Connections <= 0 {
		o.Connections = 64
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.SamplePeriod <= 0 {
		o.SamplePeriod = 2 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 0xcafe
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Duration / 3
	}
}

// memcachedLevels: requests at level 0, background crawler at 1.
const memcachedLevels = 2

// medianByP99 returns the run with the median p99 (ties broken low).
func medianByP99(runs []*Run) *Run {
	sorted := append([]*Run(nil), runs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Latency.Percentile(99) < sorted[j-1].Latency.Percentile(99); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[(len(sorted)-1)/2]
}

// withReps runs fn opt.Reps times and returns the median-by-p99 run.
func withReps(reps int, fn func() (*Run, error)) (*Run, error) {
	if reps <= 1 {
		return fn()
	}
	runs := make([]*Run, 0, reps)
	for i := 0; i < reps; i++ {
		r, err := fn()
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return medianByP99(runs), nil
}

// RunMemcachedICilk measures one (scheduler, params, RPS) Memcached
// point on the task-parallel port.
func RunMemcachedICilk(kind icilk.Scheduler, params icilk.AdaptiveParams, opt MemcachedOptions) (*Run, error) {
	opt.defaults()
	if opt.Reps > 1 {
		reps := opt.Reps
		opt.Reps = 1
		return withReps(reps, func() (*Run, error) { return RunMemcachedICilk(kind, params, opt) })
	}
	rt, err := icilk.New(icilk.Config{
		Workers: opt.Workers, IOThreads: opt.IOThreads,
		Levels: memcachedLevels, Scheduler: kind, Adaptive: params,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	notifyRuntime(rt)

	store := memcached.NewStore(memcached.StoreConfig{})
	wcfg := memcached.WorkloadConfig{
		Connections: opt.Connections, RPS: opt.RPS, Duration: opt.Duration,
		KeySpace: opt.KeySpace, ValueSize: opt.ValueSize,
		GetFraction: opt.GetFraction, Seed: opt.Seed, Warmup: opt.Warmup,
	}
	memcached.Preload(store, wcfg)
	srv := memcached.NewICilkServer(store, rt, memcached.ICilkConfig{})
	ln := netsim.NewListener()
	go srv.Serve(ln)
	defer func() { ln.Close(); srv.Close() }()

	rt.ResetWaste()
	samplers := make([]*stats.Sampler, memcachedLevels)
	for l := range samplers {
		l := l
		samplers[l] = stats.NewSampler(opt.SamplePeriod, func() float64 {
			return float64(rt.NonEmptyDeques(l))
		})
		samplers[l].Start()
	}

	var res *memcached.LoadResult
	aOp, bOp, err := measureAllocs(
		func() int64 {
			if res == nil {
				return 0
			}
			return res.Completed
		},
		func() (err error) { res, err = memcached.RunLoad(ln, wcfg); return err })
	for _, s := range samplers {
		s.Stop()
	}
	if err != nil {
		return nil, err
	}
	run := &Run{
		Params: params, Latency: res.Latency, Waste: rt.WasteReport(),
		Elapsed: res.Elapsed, Completed: res.Completed, Errors: res.Errors,
		AllocsPerOp: aOp, BytesPerOp: bOp,
	}
	for _, s := range samplers {
		run.AvgNonEmptyDeques = append(run.AvgNonEmptyDeques, s.Mean())
	}
	return run, nil
}

// NetMemcachedOptions configures a Memcached load point over real TCP
// sockets (loopback): the workload knobs plus the transport choice.
type NetMemcachedOptions struct {
	MemcachedOptions
	// Mode selects the socket readiness transport (pump goroutine vs
	// shared epoll poller); ModeAuto prefers the poller where built.
	Mode netreal.Mode
}

// RunMemcachedNet measures one Memcached point over real loopback TCP
// with the netreal socket layer, reporting data-path syscalls per op
// alongside the usual latency/allocation measurements. This is the
// harness behind the -connsweep benchmark mode.
func RunMemcachedNet(kind icilk.Scheduler, params icilk.AdaptiveParams, opt NetMemcachedOptions) (*Run, error) {
	opt.defaults()
	if opt.Reps > 1 {
		reps := opt.Reps
		opt.Reps = 1
		return withReps(reps, func() (*Run, error) { return RunMemcachedNet(kind, params, opt) })
	}
	rt, err := icilk.New(icilk.Config{
		Workers: opt.Workers, IOThreads: opt.IOThreads,
		Levels: memcachedLevels, Scheduler: kind, Adaptive: params,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	notifyRuntime(rt)

	store := memcached.NewStore(memcached.StoreConfig{})
	wcfg := memcached.WorkloadConfig{
		Connections: opt.Connections, RPS: opt.RPS, Duration: opt.Duration,
		KeySpace: opt.KeySpace, ValueSize: opt.ValueSize,
		GetFraction: opt.GetFraction, Seed: opt.Seed, Warmup: opt.Warmup,
	}
	memcached.Preload(store, wcfg)
	srv := memcached.NewICilkServer(store, rt, memcached.ICilkConfig{})

	// A per-run Stats instance and poller group keep the syscall
	// accounting clean across swept runs (netpoll.PollStats is
	// process-global, so its counters are read as deltas). Poller
	// connections complete their futures on the pollers, through
	// IOBatcher; IOThreads sizes the handler pool the pump and timers use.
	netStats := &netreal.Stats{}
	wrapOpts := netreal.Options{Stats: netStats, Batcher: rt.IOBatcher(), Mode: opt.Mode}
	if opt.Mode != netreal.ModePump && netpoll.Supported {
		g, err := netpoll.Open(min(4, runtime.GOMAXPROCS(0)))
		if err != nil {
			return nil, err
		}
		defer g.Close()
		wrapOpts.Group = g
	}
	waits0, ctls0 := netpoll.PollStats.EpollWaits(), netpoll.PollStats.EpollCtls()

	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			nc, err := nl.Accept()
			if err != nil {
				return
			}
			srv.HandleConn(netreal.WrapOptions(nc, wrapOpts))
		}
	}()
	defer func() { nl.Close(); srv.Close() }()

	rt.ResetWaste()
	samplers := make([]*stats.Sampler, memcachedLevels)
	for l := range samplers {
		l := l
		samplers[l] = stats.NewSampler(opt.SamplePeriod, func() float64 {
			return float64(rt.NonEmptyDeques(l))
		})
		samplers[l].Start()
	}

	var res *memcached.LoadResult
	aOp, bOp, err := measureAllocs(
		func() int64 {
			if res == nil {
				return 0
			}
			return res.Completed
		},
		func() (err error) { res, err = memcached.RunLoadTCP(nl.Addr().String(), wcfg); return err })
	for _, s := range samplers {
		s.Stop()
	}
	if err != nil {
		return nil, err
	}
	run := &Run{
		Params: params, Latency: res.Latency, Waste: rt.WasteReport(),
		Elapsed: res.Elapsed, Completed: res.Completed, Errors: res.Errors,
		AllocsPerOp: aOp, BytesPerOp: bOp,
	}
	if n := res.Completed; n > 0 {
		reads, writes := netStats.SysReads(), netStats.SysWrites()
		waits := netpoll.PollStats.EpollWaits() - waits0
		ctls := netpoll.PollStats.EpollCtls() - ctls0
		run.SysReadsPerOp = float64(reads) / float64(n)
		run.SysWritesPerOp = float64(writes) / float64(n)
		run.EpollWaitsPerOp = float64(waits) / float64(n)
		run.SyscallsPerOp = float64(reads+writes+waits+ctls) / float64(n)
	}
	for _, s := range samplers {
		run.AvgNonEmptyDeques = append(run.AvgNonEmptyDeques, s.Mean())
	}
	return run, nil
}

// RunMemcachedPthread measures one Memcached point on the baseline.
func RunMemcachedPthread(opt MemcachedOptions) (*Run, error) {
	opt.defaults()
	if opt.Reps > 1 {
		reps := opt.Reps
		opt.Reps = 1
		return withReps(reps, func() (*Run, error) { return RunMemcachedPthread(opt) })
	}
	store := memcached.NewStore(memcached.StoreConfig{})
	wcfg := memcached.WorkloadConfig{
		Connections: opt.Connections, RPS: opt.RPS, Duration: opt.Duration,
		KeySpace: opt.KeySpace, ValueSize: opt.ValueSize,
		GetFraction: opt.GetFraction, Seed: opt.Seed, Warmup: opt.Warmup,
	}
	memcached.Preload(store, wcfg)
	srv := memcached.NewPthreadServer(store, memcached.PthreadConfig{Workers: opt.Workers})
	ln := netsim.NewListener()
	go srv.Serve(ln)
	defer func() { ln.Close(); srv.Close() }()

	var res *memcached.LoadResult
	aOp, bOp, err := measureAllocs(
		func() int64 {
			if res == nil {
				return 0
			}
			return res.Completed
		},
		func() (err error) { res, err = memcached.RunLoad(ln, wcfg); return err })
	if err != nil {
		return nil, err
	}
	return &Run{
		Latency: res.Latency, Elapsed: res.Elapsed,
		Completed: res.Completed, Errors: res.Errors,
		AllocsPerOp: aOp, BytesPerOp: bOp,
	}, nil
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
	Workers  int
	RPS      float64
	Duration time.Duration
	Seed     uint64
	// Warmup precedes the measured window (0 = Duration/3).
	Warmup time.Duration
	// SamplePeriod for the deque-count sampler (0 = 2ms).
	SamplePeriod time.Duration
}

func (o *ServerOptions) defaults() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 0xbeef
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Duration / 3
	}
	if o.SamplePeriod <= 0 {
		o.SamplePeriod = 2 * time.Millisecond
	}
}

// runServer abstracts the email/job server run shape.
func runServer(kind icilk.Scheduler, params icilk.AdaptiveParams, opt ServerOptions,
	levels int, mix []float64, names []string, spread int,
	mkSubmit func(rt *icilk.Runtime) (workload.SubmitFunc, error)) (*Run, error) {

	opt.defaults()
	rt, err := icilk.New(icilk.Config{Workers: opt.Workers, Levels: levels, Scheduler: kind, Adaptive: params})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	notifyRuntime(rt)
	submit, err := mkSubmit(rt)
	if err != nil {
		return nil, err
	}
	rt.ResetWaste()
	samplers := make([]*stats.Sampler, levels)
	for l := range samplers {
		l := l
		samplers[l] = stats.NewSampler(opt.SamplePeriod, func() float64 {
			return float64(rt.NonEmptyDeques(l))
		})
		samplers[l].Start()
	}
	res := workload.RunOpenLoop(workload.OpenLoopConfig{
		RPS: opt.RPS, Duration: opt.Duration, Mix: mix,
		ClassNames: names, Seed: opt.Seed, Spread: spread,
		Warmup: opt.Warmup,
	}, submit)
	for _, s := range samplers {
		s.Stop()
	}
	run := &Run{
		Params: params, Latency: res.All, PerOp: res.PerClass,
		Waste: rt.WasteReport(), Elapsed: res.Elapsed, Completed: res.Sent,
	}
	for _, s := range samplers {
		run.AvgNonEmptyDeques = append(run.AvgNonEmptyDeques, s.Mean())
	}
	return run, nil
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
		cfg.Workers = opt.Workers
	}
	rt, err := icilk.New(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	notifyRuntime(rt)
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
		Elapsed: res.Elapsed, Completed: res.Sent,
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

// Fmt renders a duration in fixed microseconds for table alignment.
func Fmt(d time.Duration) string {
	return fmt.Sprintf("%8.0fus", float64(d)/float64(time.Microsecond))
}
