package main

import (
	"fmt"
	"icilk/internal/jobserver"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// phaseRates are the offered loads of the open-loop phases, in
// requests per second. They are constants: a run never scales them.
type phaseRates struct{ warm, nominal, high float64 }

// workloadBase is what the driver needs to know about a workload
// besides how to run it.
type workloadBase struct {
	wname   string
	seed    uint64
	rates   phaseRates
	limit   time.Duration // a reply later than this misses ok_frac
	primary int           // op kind p50/p99/hi_p99/ok_frac cover; -1 = every request
}

func (b *workloadBase) base() *workloadBase { return b }

type workload interface {
	base() *workloadBase
	// generate fills the open-loop phases' schedules from the seed
	// and fingerprints them; it runs once, before any set-up.
	generate(seed uint64, phases []*phase, h *scheduleHash)
	// setup builds the system under test and proves it answers
	// correctly on a quiet system; teardown stops all of it.
	setup(traced bool) error
	teardown()
	runOpen(rec *phaseRec)
	runSat(dur time.Duration) satResult
	counters() counters
	// opsDone is the phase's completed work in requests, the
	// denominator of every per-op figure.
	opsDone(rec *phaseRec) float64
}

// correctIn counts the phase's correctly answered requests.
func correctIn(rec *phaseRec) float64 {
	n := 0
	for i := range rec.done {
		if rec.done[i].Load() > 0 {
			n++
		}
	}
	return float64(n)
}

type satResult struct {
	attempted, completed, failed int64
	elapsed                      time.Duration
	cpu                          time.Duration
}

// closedLoop runs clients goroutines that each call do back to back
// until dur has passed; completions after the deadline do not count.
func closedLoop(clients int, dur time.Duration, do func(client int, n int64) bool) satResult {
	var att, comp, fail atomic.Int64
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := int64(0); time.Now().Before(deadline); n++ {
				att.Add(1)
				ok := do(c, n)
				switch {
				case !ok:
					fail.Add(1)
				case !time.Now().After(deadline):
					comp.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return satResult{attempted: att.Load(), completed: comp.Load(), failed: fail.Load(), elapsed: dur, cpu: cpuTime() - cpu0}
}

// runConfig is one invocation's knobs.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
	// keepAwake records that the keep-awake child is running.
	keepAwake bool
}

// setupReps: a run builds the system this many times and measures
// the last build. setup_s is the median, as the driver's contract
// asks, so one page-fault-heavy first build does not decide it.
const setupReps = 7

// Phase shares of --seconds. The end-to-end run is the issue's
// 3/14/10/6 s plan scaled to the run length; the traced run shortens
// every phase, adds a second nominal phase with tracing on, and leaves
// the rest of its time to the layer probes.
var (
	e2ePlan   = []planned{{"warm", 3. / 33}, {"nominal", 14. / 33}, {"high", 10. / 33}, {"sat", 6. / 33}}
	tracePlan = []planned{{"warm", 2. / 33}, {"nominal", 8. / 33}, {"high", 5. / 33}, {"traced", 6. / 33}, {"sat", 3. / 33}}
)

type planned struct {
	name  string
	share float64
}

func (b *workloadBase) rateOf(phase string) float64 {
	switch phase {
	case "warm":
		return b.rates.warm
	case "nominal", "traced":
		return b.rates.nominal
	case "high":
		return b.rates.high
	}
	return 0 // sat: closed loop
}

// genLateUS is the generator lateness (p99, us) beyond which a run's
// latency numbers are the generator's, not the system's.
const genLateUS = 2000

// planPhases lays the run's phases over its length.
func planPhases(b *workloadBase, seconds float64, trace bool) []*phase {
	plan := e2ePlan
	if trace {
		plan = tracePlan
	}
	var phases []*phase
	for _, p := range plan {
		phases = append(phases, &phase{name: p.name, dur: time.Duration(p.share * seconds * float64(time.Second)), rate: b.rateOf(p.name)})
	}
	return phases
}

func runWorkload(cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	phases := planPhases(w.base(), cfg.seconds, cfg.trace)
	h := newScheduleHash()
	w.generate(cfg.seed, phases, h)

	res := &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke,
		Host: host(cfg.keepAwake), Network: "loopback TCP only; no real link was crossed", ScheduleSHA256: h.sum()}
	res.Metrics = map[string]metricValue{}
	steal0 := stealSeconds()
	defer func() { res.StealS = stealSeconds() - steal0 }()

	reps := setupReps
	if cfg.trace || cfg.smoke {
		reps = 1
	}
	var ctlBefore int64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
		}
		ctlBefore = pollCtls()
		t0 := time.Now()
		if err := w.setup(cfg.trace); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		res.SetupsS = append(res.SetupsS, time.Since(t0).Seconds())
	}
	up := true
	teardown := func() {
		if up {
			w.teardown()
			up = false
		}
	}
	defer teardown()

	recs := map[string]*phaseRec{}
	snaps := map[string][2]procCounters{}
	var sat satResult
	var digest *traceDigest
	for _, ph := range phases {
		if ph.rate == 0 {
			sat = w.runSat(ph.dur)
			res.Phases = append(res.Phases, phaseCount{Phase: ph.name, Seconds: ph.dur.Seconds(), Attempted: sat.attempted,
				Correct: sat.attempted - sat.failed, Wrong: sat.failed})
			continue
		}
		rec := newPhaseRec(ph)
		recs[ph.name] = rec
		runtime.GC() // start every measured phase from the same heap state
		var before, after procCounters
		before.read(w)
		rec.start = time.Now()
		if ph.name == "traced" {
			digest = startTrace(w, rec)
		}
		w.runOpen(rec)
		if rest := ph.dur - time.Since(rec.start); rest > 0 {
			time.Sleep(rest)
		}
		after.read(w)
		snaps[ph.name] = [2]procCounters{before, after}
		rec.drain(2 * time.Second)
		if ph.name == "traced" {
			stopTrace(w, rec, digest)
		}
		pc := countPhase(rec)
		res.Phases = append(res.Phases, pc)
		if pc.NoReply > 0 {
			// A backlog that outlives the phase would bleed into the
			// next one and, on a connection, desynchronise replies.
			return nil, fmt.Errorf("%s: %d requests of phase %s unanswered 2 s after it ended", cfg.workload, pc.NoReply, ph.name)
		}
	}

	for _, pc := range res.Phases {
		res.Attempted += pc.Attempted
		res.Failed += pc.Wrong + pc.NoReply
	}
	if x, ok := w.(interface{ failedExtra() int64 }); ok {
		res.Failed += x.failedExtra()
	}
	res.Correct = res.Failed == 0

	for _, pc := range res.Phases {
		if (pc.Phase == "nominal" || pc.Phase == "high") && pc.LateP99US > genLateUS {
			res.GenLate = true
		}
	}
	teardown() // the probes need an idle machine
	if !cfg.trace {
		endToEndMetrics(res, w, recs, snaps, sat)
		return res, nil
	}
	layerMetrics(res, w, recs, snaps, sat, digest, ctlBefore)
	speedMetrics(res, w, recs["nominal"], recs["high"], sat)
	if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), cfg.workload, digest); err != nil {
		return nil, err
	}
	digest = nil // the probes should not share the heap with the spans
	runtime.GC()
	runProbes(res.set, cfg)
	return res, nil
}

// procCounters is a reading of the layer counters plus the process's.
type procCounters struct{ counters }

func (p *procCounters) read(w workload) {
	p.counters = w.counters()
	readProcess(&p.counters)
}

func countPhase(rec *phaseRec) phaseCount {
	pc := phaseCount{Phase: rec.ph.name, RateRPS: rec.ph.rate, Seconds: rec.ph.dur.Seconds(), Attempted: int64(len(rec.done))}
	late := lateness(rec)
	pc.LateP50US, pc.LateP99US = late.p50, late.p99
	for i := range rec.done {
		switch d := rec.done[i].Load(); {
		case d > 0:
			pc.Correct++
		case d < 0:
			pc.Wrong++
		default:
			pc.NoReply++
		}
	}
	return pc
}

// latencies returns due times and done-due of the phase's requests
// of one kind (-1 = all), unanswered or wrong ones as noReply.
func latencies(rec *phaseRec, kind int) (due, lat []int64) {
	for i := range rec.ph.ops {
		o := &rec.ph.ops[i]
		if kind >= 0 && int(o.kind) != kind {
			continue
		}
		l := int64(noReply)
		if d := rec.done[i].Load(); d > 0 {
			l = d - o.due
		}
		due = append(due, o.due)
		lat = append(lat, l)
	}
	return due, lat
}

type lateStats struct{ p50, p99 float64 } // us

func lateness(rec *phaseRec) lateStats {
	l := make([]int64, len(rec.sent))
	for i := range l {
		l[i] = rec.sent[i] - rec.ph.ops[i].due
	}
	slices.Sort(l)
	return lateStats{float64(percentile(l, 50)) / 1e3, float64(percentile(l, 99)) / 1e3}
}

const msPerNS = 1e-6

// p99Window is the slice the tail estimator works in (see windowP99):
// the issue's 1 s, which leaves every class at least 1000 samples a
// window at the nominal rates.
const p99Window = time.Second

// tailP99 is the *_p99_ms estimator applied to one class of a phase.
func tailP99(rec *phaseRec, kind int) (ms float64, windows, minSamples int) {
	due, lat := latencies(rec, kind)
	p99, nw, minS := windowP99(windowStats(due, lat, int64(rec.ph.dur), int64(p99Window)))
	return p99 * msPerNS, nw, minS
}

// speedMetrics fills the latency and throughput metrics from phases
// run with tracing off. They exist in both kinds of run: a driver
// does not gate them and reads them from the traced run's line.
func speedMetrics(res *result, w workload, nominal, high *phaseRec, sat satResult) {
	b := w.base()
	res.set("sat_ops_s", float64(sat.completed)/sat.elapsed.Seconds())
	_, lat := latencies(nominal, b.primary)
	slices.Sort(lat)
	res.set("p50_ms", float64(percentile(lat, 50))*msPerNS)
	p99, nw, minS := tailP99(nominal, b.primary)
	res.P99Windows, res.P99MinSamples = nw, minS
	res.set("p99_ms", p99)
	hp99, _, _ := tailP99(high, b.primary)
	res.set("hi_p99_ms", hp99)
	switch x := w.(type) {
	case *jobWorkload: // aging of the lowest level
		lp99, _, _ := tailP99(nominal, jobserver.LevelSW)
		res.set("lo_p99_ms", lp99)
	case *mixedWorkload: // what the background job got done meanwhile
		res.set("bg_Melems_s", x.passesDone(nominal)*bgTableSize/1e6/nominal.ph.dur.Seconds())
	}
}

func endToEndMetrics(res *result, w workload, recs map[string]*phaseRec, snaps map[string][2]procCounters, sat satResult) {
	nominal, high := recs["nominal"], recs["high"]
	speedMetrics(res, w, nominal, high, sat)
	s := snaps["nominal"]
	res.set("allocs_per_op", ratio(float64(s[1].mallocs-s[0].mallocs), w.opsDone(nominal)))

	within, total := 0, 0
	for _, rec := range []*phaseRec{nominal, high} {
		_, lat := latencies(rec, w.base().primary)
		for _, v := range lat {
			total++
			if v <= int64(w.base().limit) {
				within++
			}
		}
	}
	res.set("ok_frac", ratio(float64(within), float64(total)))
	res.set("rss_mb", peakRSSMiB())
	res.set("setup_s", median(res.SetupsS))
}
