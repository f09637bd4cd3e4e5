// Package admission is the overload-protection subsystem sitting in
// front of the scheduler: every submitted request passes an admission
// decision before a task context is allocated, admitted requests
// carry a deadline (cooperative cancellation unwinds them at their
// next scheduling point once it passes), and rejected requests fail
// in microseconds on a path that performs no allocation and never
// touches the scheduler.
//
// The paper's promptness mechanism keeps high-priority latency low
// while there is slack; past the QoS knee every level's queue grows
// without bound and all levels collapse together. Admission control
// is the complement: bound the per-priority in-flight population and
// shed work — lowest priorities first — so the top levels keep
// operating at their isolated maximum while only the bottom degrades.
//
// Three shedding policies are provided (Config.Policy):
//
//   - TailDrop: reject a request when its own level's in-flight count
//     has reached that level's capacity. Levels are isolated; a full
//     low level cannot crowd out a quiet high one, but neither does
//     load on low levels protect high ones.
//   - PriorityDrop: additionally reject *low* levels when aggregate
//     occupancy across all levels is high. Level 0 is shed only when
//     the system is completely full; the lowest level is shed as soon
//     as aggregate occupancy crosses Config.ShedThreshold — so under
//     overload the bottom levels brown out first and the top keeps
//     its isolated goodput (the experiment cmd/overload-bench runs).
//   - CoDel: a sojourn-time policy in the spirit of CoDel ("
//     Controlling Queue Delay", Nichols & Jacobson): per level, track
//     the minimum queue sojourn (submit → first execution) over an
//     interval; if even the *minimum* stayed above the target the
//     level's standing queue is too long and new arrivals are shed
//     until a sojourn below target is observed. While shedding, one
//     arrival per interval is still admitted as a probe: sojourns are
//     only observed for admitted requests, so the probe is what lets
//     the estimator see the queue drain and reopen the level (without
//     it a transient overload would latch the level at 100% shed
//     forever). Sojourn samples come from the Submit path (queue wait
//     until first execution) and from AcquireSince (caller-measured
//     arrival-to-admission wait); plain Acquire observes no wait and
//     feeds nothing, so an Acquire-only level falls back to the
//     tail-drop capacity backstop.
//   - Predictive: shed on a *predicted* deadline miss instead of an
//     observed one. Each admitted request's measured service time is
//     fed back into a TAGE-style per-class predictor
//     (internal/predict); each admitted request also charges its
//     predicted service time to its level's backlog counter
//     (uncharged at completion), so the level's backlog is the
//     predicted total work ahead of a new arrival. At admission the
//     controller estimates the request's queue wait as backlog ÷
//     worker count, adds the class's own predicted service time, and
//     sheds when the sum exceeds the request's remaining deadline
//     slack — which sheds the doomed expensive classes while cheap
//     requests that still fit their deadline keep flowing, the
//     per-class discrimination a sojourn-only policy cannot make.
//     When the predictor has no confident entry for the class (cold
//     class, or confidence below Config.PredictConfidence) the
//     decision falls back to the CoDel sojourn test above, so a
//     mistrained predictor degrades to reactive shedding rather than
//     to no shedding. Class-aware callers use the *Class entry points
//     (SubmitClassSince, AcquireClassSince); class-blind callers get
//     one synthetic class per priority level.
//
// The controller is deliberately scheduler-agnostic: it talks to the
// runtime only through the Submitter interface (satisfied by
// *sched.Runtime), so it layers above the work-stealing core exactly
// as the pluggable-policy literature argues admission structures
// should.
package admission

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"icilk/internal/metrics"
	"icilk/internal/predict"
	"icilk/internal/sched"
)

// Shed-rejection errors. All are preallocated: the shed path must not
// allocate (verified by TestShedPathDoesNotAllocate). Every rejection
// wraps ErrShed, so callers match the family with errors.Is(err,
// ErrShed) and the specific policy with the concrete value.
var (
	// ErrShed is the family sentinel: the request was rejected by
	// admission control without entering the scheduler.
	ErrShed = errors.New("admission: request shed")
	// ErrQueueFull is a tail-drop rejection: the request's own level
	// is at capacity.
	ErrQueueFull = fmt.Errorf("%w: level queue full", ErrShed)
	// ErrPriorityShed is a priority-drop rejection: aggregate
	// occupancy is high enough that this level is being shed to
	// protect higher-priority work.
	ErrPriorityShed = fmt.Errorf("%w: priority shed under load", ErrShed)
	// ErrSojourn is a CoDel rejection: the level's minimum queue
	// sojourn exceeded the target for a full interval.
	ErrSojourn = fmt.Errorf("%w: sojourn over target", ErrShed)
	// ErrPredicted is a Predictive rejection: predicted queue wait
	// plus predicted service time exceeds the request's remaining
	// deadline slack.
	ErrPredicted = fmt.Errorf("%w: predicted deadline miss", ErrShed)
)

// Policy selects the shedding strategy.
type Policy int

const (
	// PriorityDrop sheds low priority levels first when aggregate
	// occupancy is high (the default).
	PriorityDrop Policy = iota
	// TailDrop rejects only when a request's own level is full.
	TailDrop
	// CoDel sheds a level whose minimum queue sojourn stays above
	// the target for an interval.
	CoDel
	// Predictive sheds on a predicted deadline miss (per-class
	// service-time predictor + occupancy-based wait model), falling
	// back to the CoDel sojourn test when prediction confidence is
	// low.
	Predictive
)

func (p Policy) String() string {
	switch p {
	case PriorityDrop:
		return "priority-drop"
	case TailDrop:
		return "tail-drop"
	case CoDel:
		return "codel"
	case Predictive:
		return "predictive"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps the String names back to policies (flag parsing).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "priority-drop":
		return PriorityDrop, nil
	case "tail-drop":
		return TailDrop, nil
	case "codel":
		return CoDel, nil
	case "predictive":
		return Predictive, nil
	}
	return 0, fmt.Errorf("admission: unknown policy %q (priority-drop|tail-drop|codel|predictive)", s)
}

// Submitter is the scheduler surface the controller needs —
// *sched.Runtime satisfies it.
type Submitter interface {
	Levels() int
	SubmitFutureWithDeadline(level int, timeout time.Duration, fn func(*sched.Task) any) *sched.Future
}

// Config configures a Controller.
type Config struct {
	// Policy selects the shedding strategy. Default PriorityDrop.
	Policy Policy
	// QueueCap bounds each level's admitted-but-unfinished request
	// count. Default 256.
	QueueCap int
	// PerLevelCap overrides QueueCap per level when non-nil (length
	// must equal the runtime's level count).
	PerLevelCap []int
	// ShedThreshold is the aggregate-occupancy fraction at which
	// PriorityDrop starts shedding the lowest level; the shed floor
	// rises linearly until level 0 is shed only at 100%. Default 0.5.
	ShedThreshold float64
	// Timeout is the per-request deadline attached to every admitted
	// submission; past it the request's task tree is cancelled and
	// unwinds at its next scheduling point. Zero disables deadlines.
	Timeout time.Duration
	// PerLevelTimeout overrides Timeout per level when non-nil.
	PerLevelTimeout []time.Duration
	// CoDelTarget is the acceptable minimum queue sojourn. Sojourns
	// are observed on the Submit path (submission to first execution)
	// and by AcquireSince; plain Acquire observes no wait and does not
	// sample (see Acquire). Default 5ms.
	CoDelTarget time.Duration
	// CoDelInterval is the sojourn observation window. Default 100ms.
	CoDelInterval time.Duration
	// DegradedAfter is how many consecutive shed decisions (with no
	// intervening admission) flip the controller to Degraded — the
	// /readyz signal. Default 100.
	DegradedAfter int64
	// Predict sizes the service-time predictor built for the
	// Predictive policy (zero value = predict defaults). Ignored when
	// Predictor is set or the policy is not Predictive.
	Predict predict.Config
	// Predictor supplies an external predictor instance (e.g. one
	// shared with the scheduler's slack ordering). When nil and the
	// policy is Predictive, NewController builds one from Predict.
	Predictor *predict.Predictor
	// PredictConfidence is the minimum provider confidence
	// (1..predict.ConfMax) at which a prediction is trusted for the
	// shed decision; below it Predictive falls back to the CoDel
	// sojourn test. Default 2.
	PredictConfidence int
	// PredictWorkers is the service parallelism assumed by the
	// queue-wait model (wait ≈ predicted backlog / workers). Default:
	// the Submitter's worker count when it exposes Workers() int
	// (sched.Runtime does), else 1.
	PredictWorkers int
}

func (c *Config) applyDefaults(levels int) error {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.PerLevelCap != nil && len(c.PerLevelCap) != levels {
		return fmt.Errorf("admission: PerLevelCap has %d entries, runtime has %d levels", len(c.PerLevelCap), levels)
	}
	if c.PerLevelTimeout != nil && len(c.PerLevelTimeout) != levels {
		return fmt.Errorf("admission: PerLevelTimeout has %d entries, runtime has %d levels", len(c.PerLevelTimeout), levels)
	}
	if c.ShedThreshold <= 0 || c.ShedThreshold >= 1 {
		c.ShedThreshold = 0.5
	}
	if c.CoDelTarget <= 0 {
		c.CoDelTarget = 5 * time.Millisecond
	}
	if c.CoDelInterval <= 0 {
		c.CoDelInterval = 100 * time.Millisecond
	}
	if c.DegradedAfter <= 0 {
		c.DegradedAfter = 100
	}
	return nil
}

// levelState is one priority level's admission accounting, padded so
// adjacent levels' hot counters do not false-share.
type levelState struct {
	occ       atomic.Int64 // admitted-but-unfinished requests
	admitted  atomic.Int64
	shed      atomic.Int64
	completed atomic.Int64 // finished before their deadline
	timedOut  atomic.Int64 // cancelled by their deadline
	predShed  atomic.Int64 // Predictive rejections (subset of shed)
	svcMean   atomic.Int64 // EWMA of observed service times, ns
	backlog   atomic.Int64 // predicted service ns of admitted in-flight requests
	_         [16]byte

	codel codelState
}

// codelState is the per-level CoDel-style sojourn tracker. All fields
// are atomics; the interval rollover is a CAS so concurrent samples
// agree on one winner.
type codelState struct {
	intervalEnd atomic.Int64 // ns since epoch; 0 = not started
	minSojourn  atomic.Int64 // ns; math.MaxInt64 = none this interval
	dropping    atomic.Bool
}

const noSojourn = int64(1)<<62 - 1

// init arms the tracker: minSojourn must start at the no-sample
// sentinel or the zero value would register as a 0ns minimum and the
// policy could never trip.
func (cs *codelState) init() { cs.minSojourn.Store(noSojourn) }

// sample records one observed queue sojourn and rolls the interval.
func (cs *codelState) sample(nowNS, sojournNS int64, target, interval time.Duration) {
	// Keep the interval minimum.
	for {
		cur := cs.minSojourn.Load()
		if sojournNS >= cur || cs.minSojourn.CompareAndSwap(cur, sojournNS) {
			break
		}
	}
	end := cs.intervalEnd.Load()
	if end == 0 {
		cs.intervalEnd.CompareAndSwap(0, nowNS+int64(interval))
		return
	}
	if nowNS < end {
		return
	}
	if !cs.intervalEnd.CompareAndSwap(end, nowNS+int64(interval)) {
		return // another sampler rolled the interval
	}
	cs.evaluate(target)
}

// evaluate closes the interval just rolled: harvest its minimum
// sojourn and set the dropping state from it. A full interval whose
// *minimum* sojourn stayed above target means a standing queue: start
// (or keep) shedding. An interval with an under-target sojourn — or
// with no sojourns at all, meaning nothing queued — stops it.
func (cs *codelState) evaluate(target time.Duration) {
	minS := cs.minSojourn.Swap(noSojourn)
	cs.dropping.Store(minS != noSojourn && minS > int64(target))
}

// shouldShed is the admission decision for one arrival while the
// policy is CoDel. Shedding every arrival while dropping would latch
// the level shut: sojourns are sampled only for admitted requests, so
// once the in-flight backlog drains no sample could ever clear
// dropping again. Instead, the first arrival after the interval
// expires is admitted as a probe (CoDel's spaced-drop spirit, dual
// form): claiming the probe slot rolls the interval and re-evaluates
// dropping from whatever the expired interval observed — a sample-free
// or under-target interval reopens the level, an over-target one keeps
// it shedding while the probe refreshes the estimator.
func (cs *codelState) shouldShed(nowNS int64, target, interval time.Duration) bool {
	if !cs.dropping.Load() {
		return false
	}
	end := cs.intervalEnd.Load()
	if nowNS < end {
		return true
	}
	if !cs.intervalEnd.CompareAndSwap(end, nowNS+int64(interval)) {
		return true // a concurrent arrival claimed this interval's probe
	}
	cs.evaluate(target)
	return false
}

// Controller is the admission gate in front of one runtime.
type Controller struct {
	sub    Submitter
	cfg    Config
	levels int

	caps []int64 // per-level occupancy bound
	// prioThreshold[l] is the aggregate occupancy at or above which
	// PriorityDrop sheds level l (monotone decreasing in priority:
	// threshold[0] = total capacity, threshold[last] = total *
	// ShedThreshold).
	prioThreshold []int64
	timeouts      []time.Duration

	total    atomic.Int64 // aggregate occupancy
	lvl      []levelState
	consecut atomic.Int64 // consecutive sheds since the last admit

	// Predictive-policy state. pred is non-nil iff the policy is
	// Predictive (or an external Predictor was supplied).
	pred        *predict.Predictor
	predWorkers int64
	predMinConf uint8
}

// NewController builds an admission controller over sub. The zero
// Config is usable (priority-drop, 256/level, no deadlines).
func NewController(sub Submitter, cfg Config) (*Controller, error) {
	levels := sub.Levels()
	if err := cfg.applyDefaults(levels); err != nil {
		return nil, err
	}
	c := &Controller{
		sub:           sub,
		cfg:           cfg,
		levels:        levels,
		caps:          make([]int64, levels),
		prioThreshold: make([]int64, levels),
		timeouts:      make([]time.Duration, levels),
		lvl:           make([]levelState, levels),
	}
	var totalCap int64
	for l := 0; l < levels; l++ {
		capL := int64(cfg.QueueCap)
		if cfg.PerLevelCap != nil {
			capL = int64(cfg.PerLevelCap[l])
		}
		if capL <= 0 {
			return nil, fmt.Errorf("admission: level %d capacity must be positive", l)
		}
		c.caps[l] = capL
		totalCap += capL
		c.timeouts[l] = cfg.Timeout
		if cfg.PerLevelTimeout != nil {
			c.timeouts[l] = cfg.PerLevelTimeout[l]
		}
	}
	for l := 0; l < levels; l++ {
		// Linear interpolation from ShedThreshold (lowest level) up
		// to 1.0 (level 0): low levels shed first as occupancy grows.
		frac := 1.0
		if levels > 1 {
			frac = 1.0 - (1.0-cfg.ShedThreshold)*float64(l)/float64(levels-1)
		}
		c.prioThreshold[l] = int64(frac * float64(totalCap))
		c.lvl[l].codel.init()
	}
	c.pred = cfg.Predictor
	if c.pred == nil && cfg.Policy == Predictive {
		p, err := predict.New(cfg.Predict)
		if err != nil {
			return nil, err
		}
		c.pred = p
	}
	c.predWorkers = int64(cfg.PredictWorkers)
	if c.predWorkers <= 0 {
		if w, ok := sub.(interface{ Workers() int }); ok {
			c.predWorkers = int64(w.Workers())
		}
		if c.predWorkers <= 0 {
			c.predWorkers = 1
		}
	}
	c.predMinConf = 2
	if cfg.PredictConfidence > 0 {
		c.predMinConf = uint8(cfg.PredictConfidence)
	}
	return c, nil
}

// Levels returns the controller's level count.
func (c *Controller) Levels() int { return c.levels }

// Policy returns the configured shedding policy.
func (c *Controller) Policy() Policy { return c.cfg.Policy }

// Timeout returns the per-request deadline applied at level l.
func (c *Controller) Timeout(l int) time.Duration { return c.timeouts[l] }

// levelClass is the synthetic request class used for class-blind
// callers: one class per priority level, in an opcode range
// (0xc0-0xff, one per possible level) applications are documented not
// to use, so a class-blind level still trains one usable predictor
// entry instead of polluting app classes.
func levelClass(l int) predict.Class {
	return predict.Class{Op: uint8(0xc0 + l&0x3f)}
}

// admit makes the admission decision for one request of class cls at
// level l. arrivalNS is the caller-observed arrival time (UnixNano)
// or 0 when unknown. On success the request's occupancy is charged
// and, under Predictive, the returned charge (the request's predicted
// service time) is added to the level's backlog — both undone by
// release. On failure a preallocated shed error is returned and
// nothing else happens — no allocation, no scheduler interaction.
func (c *Controller) admit(l int, cls predict.Class, arrivalNS int64) (int64, error) {
	ls := &c.lvl[l]
	if ls.occ.Add(1) > c.caps[l] {
		ls.occ.Add(-1)
		return 0, c.shed(ls, ErrQueueFull)
	}
	total := c.total.Add(1)
	var charge int64
	switch c.cfg.Policy {
	case PriorityDrop:
		if total > c.prioThreshold[l] {
			ls.occ.Add(-1)
			c.total.Add(-1)
			return 0, c.shed(ls, ErrPriorityShed)
		}
	case CoDel:
		if ls.codel.shouldShed(time.Now().UnixNano(), c.cfg.CoDelTarget, c.cfg.CoDelInterval) {
			ls.occ.Add(-1)
			c.total.Add(-1)
			return 0, c.shed(ls, ErrSojourn)
		}
	case Predictive:
		var err error
		if charge, err = c.predictDecision(l, cls, arrivalNS, time.Now().UnixNano()); err != nil {
			ls.occ.Add(-1)
			c.total.Add(-1)
			if err == ErrPredicted {
				ls.predShed.Add(1)
			}
			return 0, c.shed(ls, err)
		}
		ls.backlog.Add(charge)
	}
	ls.admitted.Add(1)
	c.consecut.Store(0)
	return charge, nil
}

// predictDecision is the Predictive policy's admission test for one
// arrival: shed when predicted queue wait plus predicted service time
// exceeds the request's remaining deadline slack. The wait model is
// the level's predicted backlog — the summed predicted service of
// admitted, unfinished requests — divided by the worker count;
// per-class charges are what let the model tell a cheap arrival
// behind a short queue from an expensive one that is already doomed.
// The test is deliberately cheap (a handful of atomic loads and
// integer arithmetic) so it sits on the zero-allocation admission
// path. On success the request's own charge is returned for admit to
// add to the backlog. Without a confident prediction for the class
// (or without a deadline to miss) the decision falls back to the
// CoDel sojourn test — a cold or mistrained predictor degrades to
// reactive shedding, never to an open floodgate — and the charge
// falls back to the level's observed mean, keeping the backlog honest
// about unpredicted admissions.
func (c *Controller) predictDecision(l int, cls predict.Class, arrivalNS, nowNS int64) (int64, error) {
	ls := &c.lvl[l]
	if timeout := c.timeouts[l]; timeout > 0 && c.pred != nil {
		if est, conf, ok := c.pred.Predict(cls); ok && conf >= c.predMinConf {
			slack := int64(timeout)
			if arrivalNS > 0 {
				slack -= nowNS - arrivalNS // queueing before admission already spent
			}
			if ls.backlog.Load()/c.predWorkers+int64(est) > slack {
				return 0, ErrPredicted
			}
			return int64(est), nil
		}
	}
	if ls.codel.shouldShed(nowNS, c.cfg.CoDelTarget, c.cfg.CoDelInterval) {
		return 0, ErrSojourn
	}
	return ls.svcMean.Load(), nil
}

// noteService feeds one measured service time into the predictor and
// the level's mean-service EWMA (the wait model's numerator). Runs on
// the completion path only — never on SpawnSync.
func (c *Controller) noteService(l int, cls predict.Class, svcNS int64) {
	if svcNS < 0 {
		return
	}
	ls := &c.lvl[l]
	for {
		old := ls.svcMean.Load()
		nw := old + (svcNS-old)>>3
		if old == 0 {
			nw = svcNS
		} else if nw == old && svcNS != old {
			// Sub-resolution step: nudge so the EWMA cannot stall.
			if svcNS > old {
				nw++
			} else {
				nw--
			}
		}
		if nw == old || ls.svcMean.CompareAndSwap(old, nw) {
			break
		}
	}
	c.pred.Update(cls, time.Duration(svcNS))
}

// Predictor returns the controller's service-time predictor (nil
// unless the policy is Predictive or Config.Predictor was supplied).
func (c *Controller) Predictor() *predict.Predictor { return c.pred }

func (c *Controller) shed(ls *levelState, err error) error {
	ls.shed.Add(1)
	c.consecut.Add(1)
	return err
}

// release un-charges one finished (or abandoned) request. charge is
// the predicted-service backlog charge taken at admission (0 outside
// the Predictive policy).
func (c *Controller) release(l int, charge int64, timedOut bool) {
	ls := &c.lvl[l]
	ls.occ.Add(-1)
	c.total.Add(-1)
	if charge != 0 {
		ls.backlog.Add(-charge)
	}
	if timedOut {
		ls.timedOut.Add(1)
	} else {
		ls.completed.Add(1)
	}
}

// Submit admits and dispatches fn as a future routine at level l with
// the level's deadline attached. A shed request returns a nil future
// and a preallocated error wrapping ErrShed, in microseconds, without
// allocating a task context or touching the scheduler. The occupancy
// charge is released when the future completes on any path — normal
// return, deadline cancellation mid-run, or the queued-past-deadline
// case where the body never executes (Future.OnComplete covers all
// three; a body-side defer would miss the last).
func (c *Controller) Submit(l int, fn func(*sched.Task) any) (*sched.Future, error) {
	return c.SubmitClassSince(l, levelClass(l), time.Time{}, fn)
}

// SubmitClass is Submit with an application request class, so the
// Predictive policy predicts and trains per class instead of lumping
// the level together.
func (c *Controller) SubmitClass(l int, cls predict.Class, fn func(*sched.Task) any) (*sched.Future, error) {
	return c.SubmitClassSince(l, cls, time.Time{}, fn)
}

// SubmitClassSince is the fully-informed submission: request class
// for the predictor and arrival timestamp for the sojourn/slack
// accounting. A zero arrival means "unknown" — sojourns then measure
// from submission, and the predictive slack model assumes the full
// deadline remains. Under the Predictive policy the body's measured
// service time (body start to return) is fed back into the predictor
// on normal completion; cancelled bodies feed nothing, since a
// truncated measurement would train the predictor to underestimate
// exactly the classes that are timing out.
func (c *Controller) SubmitClassSince(l int, cls predict.Class, arrival time.Time, fn func(*sched.Task) any) (*sched.Future, error) {
	var arrivalNS int64
	if !arrival.IsZero() {
		arrivalNS = arrival.UnixNano()
	}
	charge, err := c.admit(l, cls, arrivalNS)
	if err != nil {
		return nil, err
	}
	sojourn := c.cfg.Policy == CoDel || c.cfg.Policy == Predictive
	feed := c.pred != nil
	enq := arrival
	if sojourn && enq.IsZero() {
		enq = time.Now()
	}
	f := c.sub.SubmitFutureWithDeadline(l, c.timeouts[l], func(t *sched.Task) any {
		if sojourn {
			now := time.Now()
			c.lvl[l].codel.sample(now.UnixNano(), now.Sub(enq).Nanoseconds(),
				c.cfg.CoDelTarget, c.cfg.CoDelInterval)
		}
		if t.Err() != nil {
			// Fired between resume and body start: abandon early.
			return nil
		}
		var started time.Time
		if feed {
			started = time.Now()
		}
		v := fn(t)
		if feed {
			c.noteService(l, cls, time.Since(started).Nanoseconds())
		}
		return v
	})
	f.OnComplete(func(err error) { c.release(l, charge, err != nil) })
	return f, nil
}

// Ticket is the occupancy charge of an inline request admitted with
// Acquire or AcquireSince. It is a value type: the acquire/release
// pair allocates nothing.
type Ticket struct {
	level   int
	cls     predict.Class
	admitNS int64 // admit time for the service measurement; 0 = no predictor feedback
	charge  int64 // predicted-service backlog charge taken at admission
}

// Acquire admits one inline request (one a caller executes on its own
// task rather than submitting as a future — e.g. a Memcached command
// inside a connection routine). The caller must Release the ticket
// when the request finishes. The shed path is identical to Submit's:
// preallocated error, no allocation.
//
// Acquire observes no queue wait, so it feeds nothing to the CoDel
// sojourn estimator: service time is not queueing delay, and sampling
// it would trip dropping on any level whose normal request cost
// exceeds CoDelTarget even with zero backlog. A caller that knows
// when the request actually arrived (e.g. when its bytes were read
// off the wire) should use AcquireSince so real queueing is visible
// to CoDel; under plain Acquire alone the CoDel policy degenerates to
// the tail-drop capacity backstop.
func (c *Controller) Acquire(l int) (Ticket, error) {
	return c.AcquireClassSince(l, levelClass(l), time.Time{})
}

// AcquireSince is Acquire for callers that can timestamp the
// request's arrival: the wait from arrival to admission is a genuine
// queue sojourn and is fed to the CoDel estimator (and, under
// Predictive, subtracted from the request's remaining deadline
// slack). Under the occupancy-only policies it behaves exactly like
// Acquire.
func (c *Controller) AcquireSince(l int, arrival time.Time) (Ticket, error) {
	return c.AcquireClassSince(l, levelClass(l), arrival)
}

// AcquireClass is Acquire with an application request class (see
// SubmitClass).
func (c *Controller) AcquireClass(l int, cls predict.Class) (Ticket, error) {
	return c.AcquireClassSince(l, cls, time.Time{})
}

// AcquireClassSince is the fully-informed inline admission: request
// class for the predictor and arrival timestamp for the sojourn and
// slack accounting (zero arrival = unknown, as in SubmitClassSince).
// When a predictor is attached, the ticket carries the admit time and
// Release feeds admit→release as the request's measured service time.
func (c *Controller) AcquireClassSince(l int, cls predict.Class, arrival time.Time) (Ticket, error) {
	var arrivalNS int64
	if !arrival.IsZero() {
		arrivalNS = arrival.UnixNano()
	}
	charge, err := c.admit(l, cls, arrivalNS)
	if err != nil {
		return Ticket{}, err
	}
	tk := Ticket{level: l, cls: cls, charge: charge}
	sojourn := c.cfg.Policy == CoDel || c.cfg.Policy == Predictive
	if c.pred != nil || (sojourn && arrivalNS > 0) {
		now := time.Now()
		if sojourn && arrivalNS > 0 {
			c.lvl[l].codel.sample(now.UnixNano(), now.Sub(arrival).Nanoseconds(),
				c.cfg.CoDelTarget, c.cfg.CoDelInterval)
		}
		if c.pred != nil {
			tk.admitNS = now.UnixNano()
		}
	}
	return tk, nil
}

// Release completes an inline request. late reports that the request
// exceeded its deadline (the caller enforces inline deadlines, since
// the work ran on the caller's own task). A late inline request still
// feeds its measured service time to the predictor: unlike a
// cancelled future body, the work ran to completion, so the
// measurement is a genuine (and informative — it is exactly the
// overruns the predictor must learn) service time.
func (c *Controller) Release(tk Ticket, late bool) {
	if tk.admitNS > 0 {
		c.noteService(tk.level, tk.cls, time.Now().UnixNano()-tk.admitNS)
	}
	c.release(tk.level, tk.charge, late)
}

// Degraded reports sustained 100%-shed operation: at least
// Config.DegradedAfter consecutive rejections with no intervening
// admission. The /readyz endpoint surfaces it.
func (c *Controller) Degraded() bool {
	return c.consecut.Load() >= c.cfg.DegradedAfter
}

// LevelStats is one level's admission accounting.
type LevelStats struct {
	Level     int   `json:"level"`
	Occupancy int64 `json:"occupancy"`
	Admitted  int64 `json:"admitted"`
	Shed      int64 `json:"shed"`
	Completed int64 `json:"completed"`
	TimedOut  int64 `json:"timedOut"`
	// PredictShed counts Predictive rejections (a subset of Shed);
	// MeanServiceNS is the level's observed mean service time;
	// BacklogNS is the predicted total service of admitted in-flight
	// requests.
	PredictShed   int64 `json:"predictShed,omitempty"`
	MeanServiceNS int64 `json:"meanServiceNs,omitempty"`
	BacklogNS     int64 `json:"backlogNs,omitempty"`
}

// Stats is a point-in-time controller snapshot.
type Stats struct {
	Policy   string       `json:"policy"`
	Total    int64        `json:"totalOccupancy"`
	Degraded bool         `json:"degraded"`
	PerLevel []LevelStats `json:"perLevel"`
	// Predict is the predictor's snapshot, present only when the
	// controller carries one.
	Predict *predict.Snapshot `json:"predict,omitempty"`
}

// Stats snapshots the controller's counters.
func (c *Controller) Stats() Stats {
	s := Stats{
		Policy:   c.cfg.Policy.String(),
		Total:    c.total.Load(),
		Degraded: c.Degraded(),
		PerLevel: make([]LevelStats, c.levels),
	}
	for l := range s.PerLevel {
		ls := &c.lvl[l]
		s.PerLevel[l] = LevelStats{
			Level:         l,
			Occupancy:     ls.occ.Load(),
			Admitted:      ls.admitted.Load(),
			Shed:          ls.shed.Load(),
			Completed:     ls.completed.Load(),
			TimedOut:      ls.timedOut.Load(),
			PredictShed:   ls.predShed.Load(),
			MeanServiceNS: ls.svcMean.Load(),
			BacklogNS:     ls.backlog.Load(),
		}
	}
	if c.pred != nil {
		ps := c.pred.Snapshot()
		s.Predict = &ps
	}
	return s
}

// RegisterMetrics exports the controller's counters and gauges into
// reg. All sources are pull-based atomics; registration adds nothing
// to the admission hot path.
func (c *Controller) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("icilk_admission_occupancy_total",
		"Admitted-but-unfinished requests across all priority levels.",
		func() float64 { return float64(c.total.Load()) })
	reg.GaugeFunc("icilk_admission_degraded",
		"1 while the controller is shedding 100% of arrivals (readiness signal).",
		func() float64 {
			if c.Degraded() {
				return 1
			}
			return 0
		})
	for l := 0; l < c.levels; l++ {
		ls := &c.lvl[l]
		lbl := metrics.LevelLabel(l)
		reg.GaugeFunc("icilk_admission_queue_depth",
			"Admitted-but-unfinished requests at this priority level.",
			func() float64 { return float64(ls.occ.Load()) }, lbl)
		reg.CounterFunc("icilk_admission_admitted_total",
			"Requests admitted past the admission controller.",
			func() float64 { return float64(ls.admitted.Load()) }, lbl)
		reg.CounterFunc("icilk_admission_shed_total",
			"Requests rejected by the admission controller.",
			func() float64 { return float64(ls.shed.Load()) }, lbl)
		reg.CounterFunc("icilk_admission_timeouts_total",
			"Admitted requests cancelled by their deadline.",
			func() float64 { return float64(ls.timedOut.Load()) }, lbl)
		reg.CounterFunc("icilk_admission_completed_total",
			"Admitted requests that finished before their deadline.",
			func() float64 { return float64(ls.completed.Load()) }, lbl)
		if c.pred != nil {
			reg.CounterFunc("icilk_admission_predicted_shed_total",
				"Requests rejected on a predicted deadline miss.",
				func() float64 { return float64(ls.predShed.Load()) }, lbl)
			reg.GaugeFunc("icilk_admission_mean_service_seconds",
				"Observed mean service time at this priority level.",
				func() float64 { return float64(ls.svcMean.Load()) / 1e9 }, lbl)
			reg.GaugeFunc("icilk_admission_predicted_backlog_seconds",
				"Predicted total service time of admitted in-flight requests.",
				func() float64 { return float64(ls.backlog.Load()) / 1e9 }, lbl)
		}
	}
	if c.pred != nil {
		c.pred.RegisterMetrics(reg)
	}
}
