// Package sched implements the task-parallel runtime at the core of
// this reproduction: a worker pool executing fork-join tasks and
// futures over execution-context deques (proactive work stealing), with
// four interchangeable scheduling policies:
//
//   - Prompt (this paper's contribution, Section 4): one centralized
//     pool of deques per priority level, implemented as two
//     non-blocking FIFO queues (a regular queue and a mugging queue
//     for abandoned, immediately-resumable deques), a global 64-bit
//     bitfield of levels with available work checked at every spawn /
//     sync / fut-create / get and before every steal, and
//     condition-variable sleep when the bitfield is all-zero.
//   - Adaptive (Adaptive I-Cilk, the prior state of the art): a
//     two-level scheduler; the top level reassigns workers to priority
//     levels at quantum boundaries from per-level utilization, the
//     bottom level is randomized work stealing over per-worker,
//     lock-protected deque pools with periodic rebalancing and a
//     strict no-non-stealable-deques invariant.
//   - AdaptiveAging: Adaptive plus a per-worker FIFO of resumable
//     deques in resumption order, giving a per-worker approximation of
//     the aging heuristic.
//   - AdaptiveGreedy: the Adaptive top level over Prompt's
//     centralized, unrandomized bottom level.
//
// # Execution model
//
// Go does not expose stack splitting or user-level continuations, so a
// task's continuation cannot be reified the way a Cilk runtime reifies
// frames. Instead, every task (spawned function, future routine)
// runs on its own goroutine that is *gated*: it executes only while it
// holds a worker's token. The worker goroutine sends its token on the
// resume channel of the frame findWork returned and waits on its home
// channel; the task runs user code until it reaches a scheduling point
// (spawn, sync, get, completion, abandonment), where its own goroutine
// does the worker's bookkeeping (worker.step), passes the token
// straight to the task that runs next (the child, the popped or
// released parent) — or home, when nothing is in hand — and parks.
// This preserves the paper's deque semantics exactly — spawn pushes
// the parent's continuation frame (the parked parent) on the deque
// bottom and the worker continues with the child; a failed get
// suspends the whole deque; a thief steals the top frame or mugs a
// resumable deque — at the cost of one channel operation per context
// switch, which is the same for every policy and therefore cancels
// out of all comparisons.
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icilk/internal/deque"
	"icilk/internal/epoch"
	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
	"icilk/internal/prio"
	"icilk/internal/stats"
	"icilk/internal/trace"
	"icilk/internal/xrand"
)

// dq is the deque type used throughout the scheduler; frames are
// *node values (the deque stores them type-erased).
type dq = deque.Deque

// PolicyKind selects the scheduling policy.
type PolicyKind int

const (
	// Prompt is the paper's Prompt I-Cilk scheduler.
	Prompt PolicyKind = iota
	// Adaptive is Adaptive I-Cilk (Singer et al.).
	Adaptive
	// AdaptiveAging is Adaptive I-Cilk plus per-worker aging queues.
	AdaptiveAging
	// AdaptiveGreedy is the Adaptive top level over Prompt's
	// centralized bottom level.
	AdaptiveGreedy
)

func (k PolicyKind) String() string {
	switch k {
	case Prompt:
		return "prompt"
	case Adaptive:
		return "adaptive"
	case AdaptiveAging:
		return "adaptive+aging"
	case AdaptiveGreedy:
		return "adaptive-greedy"
	}
	return fmt.Sprintf("policy(%d)", int(k))
}

// AdaptiveParams are the runtime parameters of the Adaptive variants'
// top-level processor allocator — the knobs the paper tunes per
// benchmark ("the data points are drawn from the runtime parameter
// configuration with the best latency").
type AdaptiveParams struct {
	// Quantum is the reallocation period.
	Quantum time.Duration
	// Delta is the utilization threshold above which a level's desire
	// grows.
	Delta float64
	// Rho is the multiplicative growth/shrink factor for desire.
	Rho float64
}

// DefaultAdaptiveParams returns a middle-of-the-road parameter set.
func DefaultAdaptiveParams() AdaptiveParams {
	return AdaptiveParams{Quantum: 2 * time.Millisecond, Delta: 0.75, Rho: 2.0}
}

// Config configures a Runtime.
type Config struct {
	// Workers is the number of scheduler workers (the paper's "worker
	// threads"). Default 4.
	Workers int
	// Levels is the number of priority levels in use (level 0 is the
	// highest). Must be in [1, 64]. Default 2.
	Levels int
	// Policy selects the scheduler. Default Prompt.
	Policy PolicyKind
	// Adaptive parameterizes the Adaptive variants; ignored by Prompt.
	Adaptive AdaptiveParams
	// DisableMuggingQueue is an ablation knob for Prompt: abandoned
	// deques go to the tail of the regular queue ("de-aging" them)
	// instead of the dedicated mugging queue.
	DisableMuggingQueue bool
	// TraceCapacity, if positive, enables the scheduler event trace
	// with a ring of that many events.
	TraceCapacity int
}

func (c *Config) applyDefaults() error {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Levels == 0 {
		c.Levels = 2
	}
	if c.Levels < 1 || c.Levels > prio.MaxLevels {
		return fmt.Errorf("sched: Levels must be in [1, %d], got %d", prio.MaxLevels, c.Levels)
	}
	if c.Adaptive.Quantum <= 0 {
		c.Adaptive = DefaultAdaptiveParams()
	}
	if c.Adaptive.Rho <= 1 {
		c.Adaptive.Rho = 2.0
	}
	if c.Adaptive.Delta <= 0 || c.Adaptive.Delta > 1 {
		c.Adaptive.Delta = 0.75
	}
	return nil
}

// paddedInt64 is an atomic counter alone on its cache line, so
// per-level arrays of hot counters (nonEmpty, levelWork) do not
// false-share between workers updating adjacent levels.
type paddedInt64 struct {
	atomic.Int64
	_ [56]byte
}

// Runtime is a running scheduler instance.
type Runtime struct {
	cfg  Config
	pol  policy
	bits *prio.Bitfield
	col  *epoch.Collector

	workers []*worker
	wg      sync.WaitGroup
	stopped atomic.Bool

	// nonEmpty[l] counts deques at level l that currently hold work
	// (frames or a resumable bottom) — the quantity of Figure 2.
	// Cache-line padded: every push/pop/steal on a level touches it.
	nonEmpty []paddedInt64
	// levelWork[l] accumulates nanoseconds of execution at level l in
	// the current allocator quantum (Adaptive utilization input).
	// Cache-line padded: every context switch adds to it.
	levelWork []paddedInt64

	// parts is the stack of idle epoch participants that pool enqueues
	// borrow (workers dequeue with their own). Deliberately not a
	// sync.Pool: the collector walks every participant ever registered
	// on each Collect, so one the GC drops is not freed, it is leaked
	// and replaced. The stack grows to the peak number of concurrent
	// enqueuers and stays there.
	partsMu sync.Mutex
	parts   []*epoch.Participant

	// free is the shared task-context recycling list: finished task
	// contexts (goroutine parked on its resume channel) awaiting their
	// next task body. External submissions draw from it; token holders
	// use their worker's own list, which spills here and refills from
	// here. Bounded at sharedFreeCap. See newNode/Task.finish.
	free chan *node

	// futs is the block external submissions take their futures from
	// (newFuture); token holders use their worker's own.
	futs atomic.Pointer[futBlock]

	// deques recycles dead execution-context deques (see freeDeque for
	// the safety argument); recycleDeques gates it to the
	// centralized-pool policies. Bounded at sharedFreeCap.
	deques        chan *dq
	recycleDeques bool

	// frames is the shared called-frame list (Task.Call): token
	// holders use their worker's own, which spills here and refills
	// from here. Bounded at sharedFreeCap.
	frames chan *Task

	// waitChans holds the capacity-1 channels lone Wait callers park
	// on; each comes back empty, after its one send has been received.
	// Bounded at waitChanCap.
	waitChans chan chan struct{}

	// inflight counts submitted-but-unfinished root futures, letting
	// harnesses drain before Close.
	inflight atomic.Int64

	// resumes counts deques made resumable (future completions waking
	// waiters, plus external submissions entering as resumable).
	resumes atomic.Int64

	// spawnCostNS is the measured spawn+sync round-trip cost in
	// nanoseconds, calibrated lazily by the data-parallel layer's
	// auto-grain mode (0 = not yet calibrated). One word, written once.
	spawnCostNS atomic.Int64

	// trace is the optional event log (nil when disabled; the nil
	// receiver is a no-op).
	trace *trace.Log
}

// New creates and starts a runtime.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:       cfg,
		bits:      prio.New(),
		col:       epoch.NewCollector(),
		nonEmpty:  make([]paddedInt64, cfg.Levels),
		levelWork: make([]paddedInt64, cfg.Levels),
		free:      make(chan *node, sharedFreeCap),
		deques:    make(chan *dq, sharedFreeCap),
		frames:    make(chan *Task, sharedFreeCap),
		waitChans: make(chan chan struct{}, waitChanCap),
	}
	if cfg.TraceCapacity > 0 {
		rt.trace = trace.New(cfg.TraceCapacity)
	}

	switch cfg.Policy {
	case Prompt:
		rt.pol = newPromptPolicy(rt)
	case Adaptive, AdaptiveAging:
		rt.pol = newAdaptivePolicy(rt, cfg.Policy == AdaptiveAging)
	case AdaptiveGreedy:
		rt.pol = newGreedyPolicy(rt)
	default:
		return nil, fmt.Errorf("sched: unknown policy %v", cfg.Policy)
	}
	// Deque recycling is sound only under the centralized-pool
	// policies, whose queue-presence flags account for every external
	// reference; the Adaptive variants' randomized pools hand out
	// unflagged snapshots that could alias a recycled deque (ABA).
	rt.recycleDeques = cfg.Policy == Prompt || cfg.Policy == AdaptiveGreedy

	rt.workers = make([]*worker, cfg.Workers)
	baseRNG := xrand.New(0x1c11c)
	for i := range rt.workers {
		w := &worker{
			id:   i,
			rt:   rt,
			home: make(chan struct{}, 1),
			part: rt.col.Register(),
			rng:  baseRNG.Split(),
		}
		w.assigned.Store(-1)
		rt.workers[i] = w
	}
	rt.pol.start()
	for _, w := range rt.workers {
		rt.wg.Add(1)
		go w.run()
	}
	return rt, nil
}

// Levels returns the configured number of priority levels.
func (rt *Runtime) Levels() int { return rt.cfg.Levels }

// Workers returns the configured number of workers.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// SpawnCostNS returns the calibrated spawn+sync round-trip cost in
// nanoseconds, or 0 before any calibration ran. The data-parallel
// layer's auto-grain mode calibrates it on first use and sizes
// sequential chunks against it (see icilk.AutoGrain).
func (rt *Runtime) SpawnCostNS() int64 { return rt.spawnCostNS.Load() }

// SetSpawnCostNS records the spawn+sync cost calibration (first
// writer wins, so concurrent first-use calibrations agree afterwards).
func (rt *Runtime) SetSpawnCostNS(ns int64) {
	if ns > 0 {
		rt.spawnCostNS.CompareAndSwap(0, ns)
	}
}

// NonEmptyDeques returns the instantaneous count of deques holding
// work at the given level (Figure 2's quantity).
func (rt *Runtime) NonEmptyDeques(level int) int64 {
	return rt.nonEmpty[level].Load()
}

// Inflight returns the number of submitted root futures not yet
// completed.
func (rt *Runtime) Inflight() int64 { return rt.inflight.Load() }

// WasteReport aggregates every worker's clock (Figure 6 quantities).
func (rt *Runtime) WasteReport() stats.WasteReport {
	var agg stats.WasteReport
	for _, w := range rt.workers {
		r := w.clock.Snapshot()
		agg.Work += r.Work
		agg.Overhead += r.Overhead
		agg.Waste += r.Waste
		agg.Steals += r.Steals
		agg.Muggings += r.Muggings
		agg.FailedSteals += r.FailedSteals
		agg.Sleeps += r.Sleeps
		agg.FutileWakes += r.FutileWakes
		agg.Abandons += r.Abandons
		agg.Checks += r.Checks
		agg.Suspends += r.Suspends
		agg.Spawns += r.Spawns
	}
	return agg
}

// ResetWaste zeroes all worker clocks (harnesses call this after
// warmup).
func (rt *Runtime) ResetWaste() {
	for _, w := range rt.workers {
		w.clock.Reset()
	}
}

// Trace returns the scheduler event log (nil unless TraceCapacity was
// set).
func (rt *Runtime) Trace() *trace.Log { return rt.trace }

// Close stops the runtime. It does not wait for outstanding tasks:
// callers should drain (Inflight()==0) first; parked tasks of an
// undrained runtime keep their goroutines until process exit.
func (rt *Runtime) Close() {
	if rt.stopped.Swap(true) {
		return
	}
	rt.bits.Stop()
	rt.pol.stop()
	rt.wg.Wait()
	// Poison the recycled contexts so their parked goroutines exit (a
	// nil worker token is the shutdown signal; the capacity-1 resume
	// channel takes it even if the context is still between its
	// free-list park and its resume receive). The workers have exited,
	// so their lists have no owner and drain with the shared one.
	for _, w := range rt.workers {
		for n := rt.takeFree(w); n != nil; n = rt.takeFree(w) {
			n.resume <- nil
		}
	}
}

// handle borrows an epoch participant for one pool enqueue.
func (rt *Runtime) handle() *epoch.Participant {
	rt.partsMu.Lock()
	n := len(rt.parts)
	if n == 0 {
		rt.partsMu.Unlock()
		return rt.col.Register()
	}
	p := rt.parts[n-1]
	rt.parts = rt.parts[:n-1]
	rt.partsMu.Unlock()
	return p
}

func (rt *Runtime) release(p *epoch.Participant) {
	rt.partsMu.Lock()
	rt.parts = append(rt.parts, p)
	rt.partsMu.Unlock()
}

// newDeque returns an Active deque at the given level wired to the
// runtime's non-empty counters — recycled from the dead-deque pool
// when possible (retaining its item slice's capacity), freshly
// allocated otherwise.
func (rt *Runtime) newDeque(level int) *dq {
	if rt.recycleDeques {
		select {
		case d := <-rt.deques:
			d.Reset(level)
			return d
		default:
		}
	}
	return deque.New(level, rt.onLive)
}

// freeDeque offers a dead deque for reuse. Only deques that are Dead
// and absent from both pool queues are taken: under the centralized
// pools those two facts mean no queue, worker, or waiter list can
// still reach the deque, so resetting it cannot alias a stale
// reference. Both the owner's death path and a thief's lazy-removal
// drop call this for the same deque, so the eligibility check is a
// claim, not a read: TakeForRecycle atomically moves the deque to the
// terminal Recycled state and only the single claimant offers it,
// keeping one deque from reaching the list (and later two newDeque
// callers) twice. Deques that fail the claim are left for the GC or
// for the racing claimant (their lingering queue entries are dropped
// lazily as usual), and so is a claimed deque that finds the list
// full. The Recycled state is the deque's poison: icilk_debug builds
// assert every transition, and Reset is the only one out of it.
func (rt *Runtime) freeDeque(d *dq) {
	if rt.recycleDeques && d.TakeForRecycle() {
		select {
		case rt.deques <- d:
		default:
		}
	}
}

func (rt *Runtime) onLive(level, delta int) {
	rt.nonEmpty[level].Add(int64(delta))
}

// yield directives: what a task that reached a scheduling point asks
// of the worker whose token it holds (worker.step).
type yieldKind int

const (
	ySpawn    yieldKind = iota // run msg.child next; parent frame already pushed
	yDone                      // task finished; msg.ready optionally carries a sync-released parent
	ySyncWait                  // task parked at a failed sync; deque is empty
	yGetWait                   // task parked at a failed get; deque already suspended
	yAbandon                   // task parked for priority switch; deque already abandoned
)

type yieldMsg struct {
	kind  yieldKind
	child *node // ySpawn
	ready *node // yDone: parent whose sync this completion released
	level int   // yAbandon: level to move to
}

// workerFreeCap is the size of each worker's own task-context list: a
// spawn/return pair needs one slot; a thief that keeps finishing what
// another worker spawns fills them all and spills to Runtime.free.
// sharedFreeCap bounds that shared list: at most this many finished
// contexts (goroutine + channel + Task) stay parked there awaiting
// reuse; the rest exit and are collected, so idle memory is bounded.
// The called-frame lists (worker.frames, Runtime.frames) and the dead
// deque list have the same bounds. waitChanCap bounds the lone-waiter
// channels: concurrent Wait callers beyond it each make their own.
const (
	workerFreeCap = 16
	sharedFreeCap = 256
	waitChanCap   = 64
)

// worker is one scheduler worker: a goroutine that looks for work
// (run) and a token that the tasks it found pass among themselves.
// The non-atomic fields belong to the token holder — the worker
// goroutine while the token is home, else the one task goroutine that
// holds it; the channel sends that move the token order the accesses.
type worker struct {
	id int
	rt *Runtime
	// level is the worker's current priority level. Atomic only so
	// that Snapshot can read it from other goroutines; the token
	// holder is the sole writer.
	level atomic.Int32
	// assigned is the Adaptive top-level allocator's target level for
	// this worker; -1 means parked (no allocation).
	assigned atomic.Int32
	active   *dq
	// home brings the token back to the worker goroutine when a chain
	// of tasks ends with nothing in hand. Capacity 1: there is one
	// token, and its sender must not wait for the worker to run.
	home chan struct{}
	// start is when the token last changed hands: the next hand-over
	// charges the time since to work.
	start time.Time
	// free is the LIFO of finished task contexts (newNode/Task.finish);
	// executes counts entries into execute (TestTokenPassesTaskToTask).
	free     [workerFreeCap]*node
	nfree    int
	executes int
	// frames is the LIFO of quiescent called frames (Task.Call), used
	// like free.
	frames  [workerFreeCap]*Task
	nframes int
	// futs is the block the token holder's FutCreate futures come from
	// (newFuture).
	futs  atomic.Pointer[futBlock]
	part  *epoch.Participant
	rng   *xrand.Rand
	clock stats.WorkerClock
	// tok is the debug-build token-holder tracker (zero-size no-op in
	// normal builds): at most one node holds this worker's token, and
	// only the holder may run step. It follows the token (see pass).
	tok invariant.Token
}

// run is the worker main loop: find a frame, execute the chain it
// unfolds into, repeat.
func (w *worker) run() {
	defer w.rt.wg.Done()
	for {
		if w.rt.stopped.Load() {
			return
		}
		n, d := w.rt.pol.findWork(w)
		if n == nil {
			if w.rt.stopped.Load() {
				return
			}
			continue
		}
		w.active = d
		w.level.Store(int32(d.Level()))
		w.execute(n)
	}
}

// execute hands the token to n and waits for it to come home: the
// tasks of the chain n unfolds into pass it among themselves (step)
// and send it back only when nothing runnable is in hand.
func (w *worker) execute(n *node) {
	w.executes++
	w.start = time.Now()
	w.pass(nil, n)
	<-w.home
}

// pass moves the token from cur (nil: the worker goroutine) to next
// (nil: home). After the send the receiver is running and the caller,
// still awake until it parks, must touch nothing of w.
func (w *worker) pass(cur, next *node) {
	if cur != nil {
		w.tok.Release(cur)
	}
	if next == nil {
		w.home <- struct{}{}
	} else {
		w.tok.Acquire(next)
		next.resume <- w
	}
	if invariant.Enabled {
		perturb.At(perturb.Handoff)
	}
}

// step runs on the goroutine of cur, the task that holds the token
// and has reached a scheduling point: it charges the time since the
// last hand-over to work, does what the directive asks of the active
// deque, and passes the token to the node the chain continues with,
// or home.
func (w *worker) step(cur *node, msg yieldMsg) {
	// One timestamp per context switch: this reading is also the next
	// task's start, charging the few nanoseconds of bookkeeping below
	// to work (indistinguishable at this resolution).
	now := time.Now()
	elapsed := now.Sub(w.start)
	w.start = now
	w.clock.AddWork(elapsed)
	w.rt.levelWork[w.level.Load()].Add(int64(elapsed))

	var next *node
	switch msg.kind {
	case ySpawn:
		// The task already pushed its continuation frame onto the
		// active deque (and made the deque discoverable); continue
		// depth-first with the child.
		next = msg.child

	case yDone:
		d := w.active
		if f, ok := d.PopBottom(); ok {
			// Resume the parent continuation that spawned (or
			// fut-created) the finished task.
			next = f.(*node)
			break
		}
		// Deque exhausted: it is dead. A stale copy may linger in a
		// pool queue; lazy removal discards it there.
		d.MarkDeadIfDone()
		w.rt.pol.onDequeDead(w, d)
		w.rt.freeDeque(d)
		if next = msg.ready; next != nil {
			// This completion released the parent's sync; adopt the
			// parent on a fresh deque (the classic provably-good
			// resume).
			nd := w.rt.newDeque(next.t.level)
			w.rt.pol.onAdopt(w, nd)
			w.active = nd
			w.level.Store(int32(nd.Level()))
		}

	case ySyncWait:
		// Work-first invariant: a failed sync implies the deque is
		// empty (every frame above was stolen).
		d := w.active
		if !d.MarkDeadIfDone() {
			panic("sched: failed sync with non-empty deque")
		}
		w.rt.pol.onDequeDead(w, d)
		w.rt.freeDeque(d)

	case yGetWait:
		// The task already suspended the deque and registered as a
		// waiter; the deque (if stealable) remains discoverable.

	case yAbandon:
		// The task already marked the deque immediately-resumable
		// and enqueued it; move to the target level.
		w.level.Store(int32(msg.level))
	}
	if next == nil {
		w.active = nil // the token goes home without a deque
	}
	w.pass(cur, next)
}

// SubmitBatch runs fns in slice order on the calling goroutine. A
// shared poller hands it each pass's completions (it implements
// netpoll.Batcher); a future completed by fns wakes sleeping workers
// on the spot, through its bitfield Set, as any completion does. A
// batch arriving after Close runs nothing: a process-shared poller
// outlives the runtimes whose connections it serves. The stop check
// is read once, when the batch starts, so a pass that passed it may
// still be completing futures while Close stops the bitfield and the
// workers; TestPerturbPollerDelivery (root package) races exactly
// that.
func (rt *Runtime) SubmitBatch(fns []func()) {
	if rt.stopped.Load() {
		return
	}
	for _, fn := range fns {
		fn()
	}
}
