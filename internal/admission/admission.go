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
// The one policy is priority drop, the bitfield's priority order
// applied at the door. A request is rejected when its own level's
// in-flight count has reached Config.QueueCap (ErrQueueFull), or when
// aggregate occupancy across all levels has reached its level's shed
// threshold (ErrPriorityShed). Level 0 is shed only when the system is
// completely full; the lowest level is shed as soon as aggregate
// occupancy crosses shedThreshold — so under overload the bottom levels
// brown out first and the top keeps its isolated goodput
// (BenchmarkOverload in the root package measures it).
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
	"icilk/internal/sched"
)

// Shed-rejection errors. Both are preallocated: the shed path must not
// allocate (verified by TestShedPathDoesNotAllocate). Every rejection
// wraps ErrShed, so callers match the family with errors.Is(err,
// ErrShed) and the specific cause with the concrete value.
var (
	// ErrShed is the family sentinel: the request was rejected by
	// admission control without entering the scheduler.
	ErrShed = errors.New("admission: request shed")
	// ErrQueueFull is a capacity rejection: the request's own level
	// is at capacity.
	ErrQueueFull = fmt.Errorf("%w: level queue full", ErrShed)
	// ErrPriorityShed is a priority-drop rejection: aggregate
	// occupancy is high enough that this level is being shed to
	// protect higher-priority work.
	ErrPriorityShed = fmt.Errorf("%w: priority shed under load", ErrShed)
)

// Submitter is the scheduler surface the controller needs —
// *sched.Runtime satisfies it.
type Submitter interface {
	Levels() int
	SubmitFutureWithDeadline(level int, timeout time.Duration, fn func(*sched.Task) any) *sched.Future
}

// Config configures a Controller.
type Config struct {
	// QueueCap bounds each level's admitted-but-unfinished request
	// count. Default 256.
	QueueCap int
	// Timeout is the per-request deadline attached to every admitted
	// submission; past it the request's task tree is cancelled and
	// unwinds at its next scheduling point. Zero disables deadlines.
	Timeout time.Duration
}

const (
	// shedThreshold is the aggregate-occupancy fraction at which the
	// lowest level starts being shed; the shed floor rises linearly
	// until level 0 is shed only at 100%.
	shedThreshold = 0.5
	// degradedAfter is how many consecutive shed decisions (with no
	// intervening admission) flip the controller to Degraded — the
	// /readyz signal.
	degradedAfter = 100
)

// levelState is one priority level's admission accounting, padded so
// adjacent levels' hot counters do not false-share.
type levelState struct {
	occ       atomic.Int64 // admitted-but-unfinished requests
	admitted  atomic.Int64
	shed      atomic.Int64
	completed atomic.Int64 // finished before their deadline
	timedOut  atomic.Int64 // cancelled by their deadline
	_         [24]byte
}

// Controller is the admission gate in front of one runtime.
type Controller struct {
	sub Submitter
	cfg Config

	// prioThreshold[l] is the aggregate occupancy at or above which
	// level l is shed (monotone decreasing in priority: threshold[0] =
	// total capacity, threshold[last] = total * shedThreshold).
	prioThreshold []int64

	total    atomic.Int64 // aggregate occupancy
	lvl      []levelState
	consecut atomic.Int64 // consecutive sheds since the last admit
}

// NewController builds an admission controller over sub. The zero
// Config is usable (256/level, no deadlines).
func NewController(sub Submitter, cfg Config) *Controller {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	levels := sub.Levels()
	c := &Controller{
		sub:           sub,
		cfg:           cfg,
		prioThreshold: make([]int64, levels),
		lvl:           make([]levelState, levels),
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
	}
	return c
}

// admit makes the admission decision for one request at level l. On
// success the request's occupancy is charged, undone by release. On
// failure a preallocated shed error is returned and nothing else
// happens — no allocation, no scheduler interaction.
func (c *Controller) admit(l int) error {
	ls := &c.lvl[l]
	if ls.occ.Add(1) > int64(c.cfg.QueueCap) {
		ls.occ.Add(-1)
		return c.shed(ls, ErrQueueFull)
	}
	if c.total.Add(1) > c.prioThreshold[l] {
		ls.occ.Add(-1)
		c.total.Add(-1)
		return c.shed(ls, ErrPriorityShed)
	}
	ls.admitted.Add(1)
	c.consecut.Store(0)
	return nil
}

func (c *Controller) shed(ls *levelState, err error) error {
	ls.shed.Add(1)
	c.consecut.Add(1)
	return err
}

// release un-charges one finished (or abandoned) request.
func (c *Controller) release(l int, timedOut bool) {
	ls := &c.lvl[l]
	ls.occ.Add(-1)
	c.total.Add(-1)
	if timedOut {
		ls.timedOut.Add(1)
	} else {
		ls.completed.Add(1)
	}
}

// Submit admits and dispatches fn as a future routine at level l with
// the configured deadline attached.
//
// A shed request returns a nil future and a preallocated error
// wrapping ErrShed, in microseconds, without allocating a task context
// or touching the scheduler. The occupancy charge is released when the
// future completes on any path — normal return, deadline cancellation
// mid-run, or the queued-past-deadline case where the body never
// executes (Future.OnComplete covers all three; a body-side defer
// would miss the last).
func (c *Controller) Submit(l int, fn func(*sched.Task) any) (*sched.Future, error) {
	if err := c.admit(l); err != nil {
		return nil, err
	}
	f := c.sub.SubmitFutureWithDeadline(l, c.cfg.Timeout, fn)
	f.OnComplete(func(err error) { c.release(l, err != nil) })
	return f, nil
}

// Ticket is the occupancy charge of an inline request admitted with
// Acquire. It is a value type: the acquire/release pair allocates
// nothing.
type Ticket struct {
	level int
}

// Acquire admits one inline request (one a caller executes on its own
// task rather than submitting as a future). The caller must Release
// the ticket when the request finishes. The shed path is identical to
// Submit's: preallocated error, no allocation.
func (c *Controller) Acquire(l int) (Ticket, error) {
	if err := c.admit(l); err != nil {
		return Ticket{}, err
	}
	return Ticket{level: l}, nil
}

// Release completes an inline request. late reports that the request
// exceeded its deadline (the caller enforces inline deadlines, since
// the work ran on the caller's own task).
func (c *Controller) Release(tk Ticket, late bool) {
	c.release(tk.level, late)
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
}

// Stats is a point-in-time controller snapshot.
type Stats struct {
	Total    int64        `json:"totalOccupancy"`
	Degraded bool         `json:"degraded"`
	PerLevel []LevelStats `json:"perLevel"`
}

// Stats snapshots the controller's counters.
func (c *Controller) Stats() Stats {
	s := Stats{
		Total:    c.total.Load(),
		Degraded: c.Degraded(),
		PerLevel: make([]LevelStats, len(c.lvl)),
	}
	for l := range s.PerLevel {
		ls := &c.lvl[l]
		s.PerLevel[l] = LevelStats{
			Level:     l,
			Occupancy: ls.occ.Load(),
			Admitted:  ls.admitted.Load(),
			Shed:      ls.shed.Load(),
			Completed: ls.completed.Load(),
			TimedOut:  ls.timedOut.Load(),
		}
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
	}
}
