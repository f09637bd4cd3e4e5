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
// Four shedding policies are provided (Config.Policy):
//
//   - TailDrop: reject a request when its own level's in-flight count
//     has reached Config.QueueCap. Levels are isolated; a full low
//     level cannot crowd out a quiet high one, but neither does load
//     on low levels protect high ones.
//   - PriorityDrop: additionally reject *low* levels when aggregate
//     occupancy across all levels is high. Level 0 is shed only when
//     the system is completely full; the lowest level is shed as soon
//     as aggregate occupancy crosses shedThreshold — so under overload
//     the bottom levels brown out first and the top keeps its isolated
//     goodput (BenchmarkOverload in the root package measures it).
//   - CoDel: a sojourn-time policy in the spirit of CoDel ("
//     Controlling Queue Delay", Nichols & Jacobson): per level, track
//     the minimum queue sojourn (arrival → first execution) over an
//     interval; if even the *minimum* stayed above the target the
//     level's standing queue is too long and new arrivals are shed
//     until a sojourn below target is observed. While shedding, one
//     arrival per interval is still admitted as a probe: sojourns are
//     only observed for admitted requests, so the probe is what lets
//     the estimator see the queue drain and reopen the level (without
//     it a transient overload would latch the level at 100% shed
//     forever). Sojourn samples come from the Submit path: the wait
//     from the caller's arrival time (SubmitClass), or from submission
//     when it is unknown, until the body first runs. Acquire observes
//     no wait and feeds nothing, so an Acquire-only level falls back
//     to the tail-drop capacity backstop.
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
//     class, or confidence below predictConfidence) the decision
//     falls back to the CoDel sojourn test above, so a mistrained
//     predictor degrades to reactive shedding rather than to no
//     shedding. Class-aware callers use SubmitClass; class-blind
//     callers get one synthetic class per priority level.
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

// Submitter is the scheduler surface the controller needs —
// *sched.Runtime satisfies it. Workers is the service parallelism of
// the Predictive wait model (wait ≈ predicted backlog / workers).
type Submitter interface {
	Levels() int
	Workers() int
	SubmitFutureWithDeadline(level int, timeout time.Duration, fn func(*sched.Task) any) *sched.Future
}

// Config configures a Controller.
type Config struct {
	// Policy selects the shedding strategy. Default PriorityDrop.
	Policy Policy
	// QueueCap bounds each level's admitted-but-unfinished request
	// count. Default 256.
	QueueCap int
	// Timeout is the per-request deadline attached to every admitted
	// submission; past it the request's task tree is cancelled and
	// unwinds at its next scheduling point. Zero disables deadlines.
	Timeout time.Duration
}

const (
	// shedThreshold is the aggregate-occupancy fraction at which
	// PriorityDrop starts shedding the lowest level; the shed floor
	// rises linearly until level 0 is shed only at 100%.
	shedThreshold = 0.5
	// codelTarget is the acceptable minimum queue sojourn and
	// codelInterval the window it is observed over.
	codelTarget   = 5 * time.Millisecond
	codelInterval = 100 * time.Millisecond
	// degradedAfter is how many consecutive shed decisions (with no
	// intervening admission) flip the controller to Degraded — the
	// /readyz signal.
	degradedAfter = 100
	// predictConfidence is the minimum provider confidence
	// (1..predict.ConfMax) at which a prediction is trusted for the
	// shed decision; below it Predictive falls back to the CoDel
	// sojourn test.
	predictConfidence = 2
)

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
	minSojourn  atomic.Int64 // ns; noSojourn = none this interval
	dropping    atomic.Bool
}

const noSojourn = int64(1)<<62 - 1

// init arms the tracker: minSojourn must start at the no-sample
// sentinel or the zero value would register as a 0ns minimum and the
// policy could never trip.
func (cs *codelState) init() { cs.minSojourn.Store(noSojourn) }

// sample records one observed queue sojourn and rolls the interval.
func (cs *codelState) sample(nowNS, sojournNS int64) {
	// Keep the interval minimum.
	for {
		cur := cs.minSojourn.Load()
		if sojournNS >= cur || cs.minSojourn.CompareAndSwap(cur, sojournNS) {
			break
		}
	}
	end := cs.intervalEnd.Load()
	if end == 0 {
		cs.intervalEnd.CompareAndSwap(0, nowNS+int64(codelInterval))
		return
	}
	if nowNS < end {
		return
	}
	if !cs.intervalEnd.CompareAndSwap(end, nowNS+int64(codelInterval)) {
		return // another sampler rolled the interval
	}
	cs.evaluate()
}

// evaluate closes the interval just rolled: harvest its minimum
// sojourn and set the dropping state from it. A full interval whose
// *minimum* sojourn stayed above target means a standing queue: start
// (or keep) shedding. An interval with an under-target sojourn — or
// with no sojourns at all, meaning nothing queued — stops it.
func (cs *codelState) evaluate() {
	minS := cs.minSojourn.Swap(noSojourn)
	cs.dropping.Store(minS != noSojourn && minS > int64(codelTarget))
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
func (cs *codelState) shouldShed(nowNS int64) bool {
	if !cs.dropping.Load() {
		return false
	}
	end := cs.intervalEnd.Load()
	if nowNS < end {
		return true
	}
	if !cs.intervalEnd.CompareAndSwap(end, nowNS+int64(codelInterval)) {
		return true // a concurrent arrival claimed this interval's probe
	}
	cs.evaluate()
	return false
}

// Controller is the admission gate in front of one runtime.
type Controller struct {
	sub Submitter
	cfg Config

	// prioThreshold[l] is the aggregate occupancy at or above which
	// PriorityDrop sheds level l (monotone decreasing in priority:
	// threshold[0] = total capacity, threshold[last] = total *
	// shedThreshold).
	prioThreshold []int64

	total    atomic.Int64 // aggregate occupancy
	lvl      []levelState
	consecut atomic.Int64 // consecutive sheds since the last admit

	// Predictive-policy state: pred is non-nil iff the policy is
	// Predictive.
	pred        *predict.Predictor
	predWorkers int64
}

// NewController builds an admission controller over sub. The zero
// Config is usable (priority-drop, 256/level, no deadlines).
func NewController(sub Submitter, cfg Config) (*Controller, error) {
	if cfg.Policy < PriorityDrop || cfg.Policy > Predictive {
		return nil, fmt.Errorf("admission: unknown policy %v", cfg.Policy)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	levels := sub.Levels()
	c := &Controller{
		sub:           sub,
		cfg:           cfg,
		prioThreshold: make([]int64, levels),
		lvl:           make([]levelState, levels),
		predWorkers:   int64(max(sub.Workers(), 1)),
	}
	totalCap := int64(cfg.QueueCap) * int64(levels)
	for l := 0; l < levels; l++ {
		// Linear interpolation from shedThreshold (lowest level) up
		// to 1.0 (level 0): low levels shed first as occupancy grows.
		frac := 1.0
		if levels > 1 {
			frac = 1.0 - (1.0-shedThreshold)*float64(l)/float64(levels-1)
		}
		c.prioThreshold[l] = int64(frac * float64(totalCap))
		c.lvl[l].codel.init()
	}
	if cfg.Policy == Predictive {
		p, err := predict.New(predict.Config{})
		if err != nil {
			return nil, err
		}
		c.pred = p
	}
	return c, nil
}

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
	if ls.occ.Add(1) > int64(c.cfg.QueueCap) {
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
		if ls.codel.shouldShed(time.Now().UnixNano()) {
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
	if timeout := c.cfg.Timeout; timeout > 0 {
		if est, conf, ok := c.pred.Predict(cls); ok && conf >= predictConfidence {
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
	if ls.codel.shouldShed(nowNS) {
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
// unless the policy is Predictive).
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

// Submit is SubmitClass for a class-blind caller with no arrival
// time: the request trains its level's synthetic class, and its
// sojourn is measured from submission.
func (c *Controller) Submit(l int, fn func(*sched.Task) any) (*sched.Future, error) {
	return c.SubmitClass(l, levelClass(l), time.Time{}, fn)
}

// SubmitClass admits and dispatches fn as a future routine at level l
// with the configured deadline attached. cls is the request's class
// for the Predictive policy's predictor; arrival is when the request
// reached the caller, zero meaning unknown — sojourns then measure
// from submission, and the predictive slack model assumes the full
// deadline remains.
//
// A shed request returns a nil future and a preallocated error
// wrapping ErrShed, in microseconds, without allocating a task context
// or touching the scheduler. The occupancy charge is released when the
// future completes on any path — normal return, deadline cancellation
// mid-run, or the queued-past-deadline case where the body never
// executes (Future.OnComplete covers all three; a body-side defer
// would miss the last). Under the Predictive policy the body's
// measured service time (body start to return) is fed back into the
// predictor on normal completion; cancelled bodies feed nothing, since
// a truncated measurement would train the predictor to underestimate
// exactly the classes that are timing out.
func (c *Controller) SubmitClass(l int, cls predict.Class, arrival time.Time, fn func(*sched.Task) any) (*sched.Future, error) {
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
	f := c.sub.SubmitFutureWithDeadline(l, c.cfg.Timeout, func(t *sched.Task) any {
		if sojourn {
			now := time.Now()
			c.lvl[l].codel.sample(now.UnixNano(), now.Sub(enq).Nanoseconds())
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
// Acquire. It is a value type: the acquire/release pair allocates
// nothing.
type Ticket struct {
	level   int
	admitNS int64 // admit time for the service measurement; 0 = no predictor feedback
	charge  int64 // predicted-service backlog charge taken at admission
}

// Acquire admits one inline request (one a caller executes on its own
// task rather than submitting as a future). The caller must Release
// the ticket when the request finishes. The shed path is identical to
// Submit's: preallocated error, no allocation.
//
// Acquire observes no queue wait, so it feeds nothing to the CoDel
// sojourn estimator: service time is not queueing delay, and sampling
// it would trip dropping on any level whose normal request cost
// exceeds the target even with zero backlog. Under Acquire alone the
// CoDel policy degenerates to the tail-drop capacity backstop.
func (c *Controller) Acquire(l int) (Ticket, error) {
	charge, err := c.admit(l, levelClass(l), 0)
	if err != nil {
		return Ticket{}, err
	}
	tk := Ticket{level: l, charge: charge}
	if c.pred != nil {
		tk.admitNS = time.Now().UnixNano()
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
		c.noteService(tk.level, levelClass(tk.level), time.Now().UnixNano()-tk.admitNS)
	}
	c.release(tk.level, tk.charge, late)
}

// Degraded reports sustained 100%-shed operation: at least
// degradedAfter consecutive rejections with no intervening admission.
// The /readyz endpoint surfaces it.
func (c *Controller) Degraded() bool {
	return c.consecut.Load() >= degradedAfter
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
		PerLevel: make([]LevelStats, len(c.lvl)),
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
	for l := range c.lvl {
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
