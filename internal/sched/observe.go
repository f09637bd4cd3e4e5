package sched

import (
	"icilk/internal/metrics"
	"icilk/internal/stats"
)

// LevelSnapshot is the observable state of one priority level.
type LevelSnapshot struct {
	Level int `json:"level"`
	// BitSet reports whether the level's bit in the work-availability
	// bitfield is currently set.
	BitSet bool `json:"bitSet"`
	// NonEmptyDeques is the instantaneous count of deques holding work
	// at this level (the paper's Figure 2 quantity).
	NonEmptyDeques int64 `json:"nonEmptyDeques"`
	// RegularDepth and MuggingDepth are the policy's discoverable-
	// deque populations (see policy.poolDepths for the per-policy
	// meaning).
	RegularDepth int `json:"regularDepth"`
	MuggingDepth int `json:"muggingDepth"`
}

// WorkerSnapshot is the observable state of one worker.
type WorkerSnapshot struct {
	ID int `json:"id"`
	// Level is the worker's current priority level.
	Level int `json:"level"`
	// Assigned is the Adaptive allocator's target level (-1 = parked
	// or not an Adaptive variant).
	Assigned int `json:"assigned"`
	// Clock is the worker's waste accounting (durations in
	// nanoseconds).
	Clock stats.WasteReport `json:"clock"`
}

// Snapshot is a point-in-time view of the whole scheduler, served as
// JSON by the admin endpoint /debug/sched. All fields are read from
// atomics or short-lived locks; taking a snapshot does not stop the
// scheduler, so the parts are individually consistent but not
// mutually so.
type Snapshot struct {
	Policy     string `json:"policy"`
	Workers    int    `json:"workers"`
	LevelCount int    `json:"levelCount"`
	// Bitfield is the raw 64-bit work-availability field (bit i set =
	// level i has discoverable work).
	Bitfield uint64 `json:"bitfield"`
	Inflight int64  `json:"inflight"`
	Resumes  int64  `json:"resumes"`
	// Total aggregates every worker's clock (durations in
	// nanoseconds).
	Total     stats.WasteReport `json:"total"`
	PerLevel  []LevelSnapshot   `json:"perLevel"`
	PerWorker []WorkerSnapshot  `json:"perWorker"`
}

// Snapshot captures the scheduler's observable state.
func (rt *Runtime) Snapshot() Snapshot {
	s := Snapshot{
		Policy:     rt.cfg.Policy.String(),
		Workers:    len(rt.workers),
		LevelCount: rt.cfg.Levels,
		Bitfield:   rt.bits.Load(),
		Inflight:   rt.inflight.Load(),
		Resumes:    rt.resumes.Load(),
		Total:      rt.WasteReport(),
		PerLevel:   make([]LevelSnapshot, rt.cfg.Levels),
		PerWorker:  make([]WorkerSnapshot, len(rt.workers)),
	}
	for l := 0; l < rt.cfg.Levels; l++ {
		reg, mug := rt.pol.poolDepths(l)
		s.PerLevel[l] = LevelSnapshot{
			Level:          l,
			BitSet:         s.Bitfield&(1<<uint(l)) != 0,
			NonEmptyDeques: rt.nonEmpty[l].Load(),
			RegularDepth:   reg,
			MuggingDepth:   mug,
		}
	}
	for i, w := range rt.workers {
		s.PerWorker[i] = WorkerSnapshot{
			ID:       w.id,
			Level:    int(w.level.Load()),
			Assigned: int(w.assigned.Load()),
			Clock:    w.clock.Snapshot(),
		}
	}
	return s
}

// RegisterMetrics exports the scheduler's counters and gauges into
// reg. Every source is pull-based: the registry reads the worker
// clocks and pool depths only at scrape time, so registration adds
// nothing to the scheduler's steady-state cost.
func (rt *Runtime) RegisterMetrics(reg *metrics.Registry) {
	sum := func(field func(stats.WasteReport) int64) func() float64 {
		return func() float64 {
			var t int64
			for _, w := range rt.workers {
				t += field(w.clock.Snapshot())
			}
			return float64(t)
		}
	}
	secs := func(field func(stats.WasteReport) int64) func() float64 {
		f := sum(field)
		return func() float64 { return f() / 1e9 }
	}

	reg.CounterFunc("icilk_steals_total",
		"Successful steals of a deque's top frame.",
		sum(func(r stats.WasteReport) int64 { return r.Steals }))
	reg.CounterFunc("icilk_mugs_total",
		"Whole-deque muggings (a thief adopting a resumable deque).",
		sum(func(r stats.WasteReport) int64 { return r.Muggings }))
	reg.CounterFunc("icilk_abandons_total",
		"Deques abandoned by their worker to move to a higher-priority level.",
		sum(func(r stats.WasteReport) int64 { return r.Abandons }))
	reg.CounterFunc("icilk_failed_steals_total",
		"Steal probes that found nothing runnable.",
		sum(func(r stats.WasteReport) int64 { return r.FailedSteals }))
	reg.CounterFunc("icilk_sleeps_total",
		"Idle transitions: bitfield-zero sleeps (Prompt) or allocator parkings (Adaptive).",
		sum(func(r stats.WasteReport) int64 { return r.Sleeps }))
	reg.CounterFunc("icilk_futile_wakes_total",
		"Wakes from the Prompt sleep gate that found no work: back to sleep inside the gate, or a first pop that failed.",
		sum(func(r stats.WasteReport) int64 { return r.FutileWakes }))
	reg.CounterFunc("icilk_suspends_total",
		"Deques suspended at a failed future get.",
		sum(func(r stats.WasteReport) int64 { return r.Suspends }))
	reg.CounterFunc("icilk_spawns_total",
		"Task.Spawn calls; a data-parallel loop spawns only when a thief has emptied its deque.",
		sum(func(r stats.WasteReport) int64 { return r.Spawns }))
	reg.CounterFunc("icilk_bitfield_checks_total",
		"Scheduling-point priority checks (every spawn, sync, fut-create, get, and yield).",
		sum(func(r stats.WasteReport) int64 { return r.Checks }))
	reg.CounterFunc("icilk_resumes_total",
		"Deques made resumable (future completions and external submissions).",
		func() float64 { return float64(rt.resumes.Load()) })

	reg.CounterFunc("icilk_work_seconds_total",
		"Worker time executing application code.",
		secs(func(r stats.WasteReport) int64 { return int64(r.Work) }))
	reg.CounterFunc("icilk_overhead_seconds_total",
		"Worker time on productive scheduler bookkeeping (steals, muggings, queue pushes).",
		secs(func(r stats.WasteReport) int64 { return int64(r.Overhead) }))
	reg.CounterFunc("icilk_waste_seconds_total",
		"Worker time looking for work and failing to find it (the paper's waste clock).",
		secs(func(r stats.WasteReport) int64 { return int64(r.Waste) }))

	reg.GaugeFunc("icilk_inflight_futures",
		"Submitted-but-unfinished root futures.",
		func() float64 { return float64(rt.inflight.Load()) })
	reg.GaugeFunc("icilk_bitfield",
		"Raw work-availability bitfield (bit i set = level i has work).",
		func() float64 { return float64(rt.bits.Load()) })
	reg.GaugeFunc("icilk_workers",
		"Configured scheduler workers.",
		func() float64 { return float64(len(rt.workers)) })

	for l := 0; l < rt.cfg.Levels; l++ {
		l := l
		reg.GaugeFunc("icilk_nonempty_deques",
			"Deques currently holding work at this priority level (Figure 2 quantity).",
			func() float64 { return float64(rt.nonEmpty[l].Load()) },
			metrics.LevelLabel(l))
		reg.GaugeFunc("icilk_pool_regular_depth",
			"Discoverable deques in the level's regular pool (per-worker pool total for Adaptive).",
			func() float64 { reg, _ := rt.pol.poolDepths(l); return float64(reg) },
			metrics.LevelLabel(l))
		reg.GaugeFunc("icilk_pool_mugging_depth",
			"Deques in the level's mugging queue (aging-queue length for Adaptive).",
			func() float64 { _, mug := rt.pol.poolDepths(l); return float64(mug) },
			metrics.LevelLabel(l))
	}
}
