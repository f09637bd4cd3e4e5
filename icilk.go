// Package icilk is the public API of this reproduction of "An
// Efficient Scheduler for Task-Parallel Interactive Applications"
// (Singer, Agrawal, Lee — SPAA 2023): a priority-oriented
// task-parallel runtime for interactive applications, providing
// fork-join parallelism (Spawn/Sync), futures (FutCreate/Get), I/O
// futures with a synchronous interface, and four interchangeable
// schedulers — Prompt I-Cilk (the paper's contribution), Adaptive
// I-Cilk (the prior state of the art), and the two hybrid variants the
// paper evaluates (Adaptive plus aging, Adaptive Greedy).
//
// # Quick start
//
//	rt, _ := icilk.New(icilk.Config{Workers: 4, Levels: 2})
//	defer rt.Close()
//	sum := rt.Run(func(t *icilk.Task) any {
//	    var a, b int
//	    t.Spawn(func(ct *icilk.Task) { a = work(ct) })
//	    b = work(t)
//	    t.Sync()
//	    return a + b
//	}).(int)
//
// Priority level 0 is the highest. Tasks at lower levels are abandoned
// promptly (under the Prompt scheduler) whenever higher-priority work
// appears.
package icilk

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"icilk/internal/admin"
	"icilk/internal/admission"
	"icilk/internal/iopool"
	"icilk/internal/metrics"
	"icilk/internal/sched"
	"icilk/internal/stats"
	"icilk/internal/trace"
)

// Task is the per-task context passed to every task function; it
// carries the Spawn/Sync/FutCreate operations. See the sched package
// for semantics.
type Task = sched.Task

// TakeFrame returns a zero *R to spawn with Task.SpawnFrame: one the
// task's context parked earlier if it holds any, else a new one. A fork
// site that takes its record here and parks it after its sync allocates
// nothing in steady state (README, "Install & quick start", shows the
// whole shape).
func TakeFrame[R any](t *Task) *R { return sched.TakeFrame[R](t) }

// ParkFrame zeroes r and gives it back to the task's context. Call it
// only on the normal path, after the Sync that joined the spawn r
// served and after reading the child's result out of r.
func ParkFrame[R any](t *Task, r *R) { sched.ParkFrame(t, r) }

// Future is a handle to an asynchronously computed value.
type Future = sched.Future

// Scheduler selects the scheduling policy.
type Scheduler = sched.PolicyKind

// Scheduler kinds.
const (
	// Prompt is Prompt I-Cilk: centralized per-level FIFO deque pools
	// with a mugging queue, frequent bitfield checks, sleep on idle.
	Prompt = sched.Prompt
	// Adaptive is Adaptive I-Cilk: two-level scheduling with
	// randomized work stealing over per-worker deque pools.
	Adaptive = sched.Adaptive
	// AdaptiveAging adds per-worker resumption-order queues to
	// Adaptive.
	AdaptiveAging = sched.AdaptiveAging
	// AdaptiveGreedy pairs the Adaptive top level with Prompt's
	// centralized bottom level.
	AdaptiveGreedy = sched.AdaptiveGreedy
)

// AdaptiveParams are the tunables of the Adaptive variants' top-level
// allocator (the paper tunes these per benchmark).
type AdaptiveParams = sched.AdaptiveParams

// AdmissionConfig configures the admission-control subsystem: the
// per-level queue capacity and the per-request deadline.
type AdmissionConfig = admission.Config

// AdmissionController is the admission gate a caller puts in front of
// a runtime: Submit admits or sheds future routines, Acquire/Release
// inline requests, Stats snapshots the counters. It sheds by priority,
// lowest levels first as aggregate occupancy grows. Obtain one via
// Config.Admission + Runtime.Admission.
type AdmissionController = admission.Controller

// AdmissionTicket is the occupancy charge of an inline request
// admitted with AdmissionController.Acquire.
type AdmissionTicket = admission.Ticket

// ErrShed is the sentinel wrapped by every admission rejection; match
// with errors.Is.
var ErrShed = admission.ErrShed

// Config configures a Runtime.
type Config struct {
	// Workers is the number of scheduler workers. Default 4. For true
	// multi-core operation run with GOMAXPROCS >= Workers so workers
	// occupy parallel Ps.
	Workers int
	// IOThreads is the number of I/O handling threads for completions
	// that have no thread of their own — netsim connections, the
	// per-connection pump, CompleteIO and Sleep's timers. Default 4,
	// matching the paper's setup. Shared-poller sockets do not use
	// them: the pollers complete their futures in place.
	IOThreads int
	// Levels is the number of priority levels (level 0 highest),
	// 1..64. Default 2.
	Levels int
	// Scheduler selects the policy. Default Prompt.
	Scheduler Scheduler
	// Adaptive parameterizes the Adaptive variants.
	Adaptive AdaptiveParams
	// DisableMuggingQueue is a Prompt ablation: abandoned deques are
	// enqueued at the regular queue's tail (de-aged).
	DisableMuggingQueue bool
	// TraceCapacity, if positive, enables the scheduler event trace
	// (see Runtime.Trace) with a ring of that many events.
	TraceCapacity int
	// Admission, when non-nil, puts an admission controller in front
	// of the runtime (Runtime.Admission): bounded per-priority
	// queues, load shedding, and per-request deadlines. Its counters
	// are registered into the runtime's metric registry.
	Admission *AdmissionConfig
}

// Runtime is a running scheduler instance plus its I/O subsystem.
type Runtime struct {
	rt      *sched.Runtime
	io      *iopool.Pool
	metrics *metrics.Registry
	adm     *admission.Controller
	closed  atomic.Bool

	mu     sync.Mutex
	admins []*admin.Server // servers created by ServeAdmin, shut down by Close
}

// New creates and starts a runtime.
func New(cfg Config) (*Runtime, error) {
	rt, err := sched.New(sched.Config{
		Workers:             cfg.Workers,
		Levels:              cfg.Levels,
		Policy:              cfg.Scheduler,
		Adaptive:            cfg.Adaptive,
		DisableMuggingQueue: cfg.DisableMuggingQueue,
		TraceCapacity:       cfg.TraceCapacity,
	})
	if err != nil {
		return nil, err
	}
	io := cfg.IOThreads
	if io <= 0 {
		io = 4
	}
	pool := iopool.New(io)
	reg := metrics.NewRegistry()
	rt.RegisterMetrics(reg)
	pool.RegisterMetrics(reg)
	r := &Runtime{rt: rt, io: pool, metrics: reg}
	if cfg.Admission != nil {
		r.adm = admission.NewController(rt, *cfg.Admission)
		r.adm.RegisterMetrics(reg)
	}
	return r, nil
}

// Close shuts the runtime down: /readyz flips to 503 immediately, any
// admin servers created by ServeAdmin drain gracefully (in-flight
// scrapes finish, bounded at one second), then the I/O pool and the
// scheduler stop. Drain outstanding work first (wait on your futures,
// or poll Inflight).
func (r *Runtime) Close() {
	r.closed.Store(true)
	r.mu.Lock()
	admins := r.admins
	r.admins = nil
	r.mu.Unlock()
	for _, s := range admins {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		s.Shutdown(ctx)
		cancel()
	}
	r.io.Close()
	r.rt.Close()
}

// Admission returns the admission controller, or nil unless
// Config.Admission was set.
func (r *Runtime) Admission() *AdmissionController { return r.adm }

// Run executes fn as a top-priority future routine and blocks until it
// returns.
func (r *Runtime) Run(fn func(*Task) any) any { return r.rt.Run(fn) }

// Submit injects fn as a new future routine at the given priority
// level from any goroutine.
func (r *Runtime) Submit(level int, fn func(*Task) any) *Future {
	return r.rt.SubmitFuture(level, fn)
}

// SubmitWithDeadline is Submit with a per-request deadline: if fn's
// task tree has not completed within timeout it is cancelled, unwinds
// at its next scheduling points, and the future completes with
// Err() == context.DeadlineExceeded. Cooperative code can poll
// Task.Err to stop cleanly first. A non-positive timeout behaves like
// Submit.
func (r *Runtime) SubmitWithDeadline(level int, timeout time.Duration, fn func(*Task) any) *Future {
	return r.rt.SubmitFutureWithDeadline(level, timeout, fn)
}

// Inflight returns the number of submitted-but-unfinished futures.
func (r *Runtime) Inflight() int64 { return r.rt.Inflight() }

// NonEmptyDeques returns the instantaneous number of deques holding
// work at the given priority level (the quantity of the paper's
// Figure 2).
func (r *Runtime) NonEmptyDeques(level int) int64 { return r.rt.NonEmptyDeques(level) }

// WasteReport aggregates worker time accounting (work / overhead /
// waste plus steal, mug, failed-steal, sleep, and abandon counts).
func (r *Runtime) WasteReport() stats.WasteReport { return r.rt.WasteReport() }

// ResetWaste zeroes the waste accounting (call after warmup).
func (r *Runtime) ResetWaste() { r.rt.ResetWaste() }

// Workers returns the configured worker count.
func (r *Runtime) Workers() int { return r.rt.Workers() }

// Levels returns the configured number of priority levels.
func (r *Runtime) Levels() int { return r.rt.Levels() }

// Trace returns the scheduler event log, or nil unless
// Config.TraceCapacity was set. Events cover steals, muggings,
// abandonments, suspensions, resumptions, pool enqueues/drops, and
// idle sleeps/wakes.
func (r *Runtime) Trace() *trace.Log { return r.rt.Trace() }

// NewIOFuture creates a future to be completed by external code — the
// raw building block for custom I/O integrations.
func (r *Runtime) NewIOFuture() *Future { return r.rt.NewIOFuture() }

// CompleteIO fulfills an I/O future through the I/O handler threads:
// the completion is queued FIFO behind earlier completions and
// processed by a handler thread, exactly as the paper's I/O subsystem
// does. Use this (rather than calling f.Complete directly) so that
// resumption order reflects completion arrival order.
func (r *Runtime) CompleteIO(f *Future, v any) {
	r.io.Submit(func() { f.Complete(v) })
}

// IOBatcher is what external readiness sources (the netreal/netpoll
// shared pollers) hand each harvest pass's completion callbacks to:
// it runs them on the caller, in order — each completion wakes
// sleeping workers as it lands, through the promptness bitfield —
// and runs nothing after Close. The returned value implements
// netpoll.Batcher.
func (r *Runtime) IOBatcher() interface{ SubmitBatch(fns []func()) } { return r.rt }

// Sleep parks the calling task for d without occupying a worker: the
// worker suspends the task's deque and runs other work; a timer
// completes the underlying I/O future through the handler threads.
func (r *Runtime) Sleep(t *Task, d time.Duration) {
	f := r.rt.NewIOFuture()
	time.AfterFunc(d, func() { r.CompleteIO(f, nil) })
	f.Get(t)
}
