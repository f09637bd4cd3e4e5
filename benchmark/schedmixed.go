package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icilk"
	"icilk/internal/xrand"
)

// sched_mixed: no sockets. Level-0 interactive requests, each a small
// parallel reduction, arrive open loop while a level-1 reduction over
// a large table is resubmitted back to back and keeps every worker
// busy. The shapes are cmd/parallel-bench's.
const (
	interTableSize = 1 << 15
	interGrain     = 1 << 12
	bgTableSize    = 1 << 21
	bgGrain        = 1 << 13
)

type mixedWorkload struct {
	workloadBase
	rt         *icilk.Runtime
	interTable []int64
	bgTable    []int64
	interSum   int64 // serial reference results
	bgSum      int64

	bgStop   atomic.Bool
	bgWG     sync.WaitGroup
	bgMu     sync.Mutex
	bgPasses []bgPassRec // every completed background pass
	bgBad    atomic.Int64
	epoch    time.Time
}

type bgPassRec struct{ start, end int64 } // ns after epoch

func newMixed(rates phaseRates) *mixedWorkload {
	return &mixedWorkload{workloadBase: workloadBase{wname: "sched_mixed", rates: rates, limit: 10 * time.Millisecond, primary: -1}}
}

func buildTable(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i*2654435761) % 1009
	}
	return xs
}

func interScan(t *icilk.Task, table []int64) int64 {
	return icilk.Reduce(t, 0, interTableSize/interGrain, 1, 0,
		func(b int) int64 {
			var s int64
			for _, v := range table[b*interGrain : (b+1)*interGrain] {
				s += v
			}
			return s
		},
		func(a, b int64) int64 { return a + b })
}

func bgLeaf(table []int64, i int) int64 {
	return (table[i]*6364136223846793005 + 1442695040888963407) & 0xffff
}

func bgPass(t *icilk.Task, table []int64) int64 {
	return icilk.Reduce(t, 0, len(table), bgGrain, 0,
		func(i int) int64 { return bgLeaf(table, i) },
		func(a, b int64) int64 { return a + b })
}

// The requests are identical, so the schedule is arrival times only.
func (w *mixedWorkload) generate(seed uint64, phases []*phase, h *scheduleHash) {
	w.seed = seed
	for _, ph := range phases {
		if ph.rate == 0 {
			continue
		}
		poisson(ph, xrand.New(phaseSeed(seed, w.wname, ph.name)), func(*xrand.Rand, *op) {})
		h.phase(ph)
	}
	h.words(interTableSize, interGrain, bgTableSize, bgGrain)
}

func (w *mixedWorkload) setup(bool) error {
	rt, err := icilk.New(icilk.Config{Workers: nproc(), IOThreads: nproc(), Scheduler: icilk.Prompt})
	if err != nil {
		return err
	}
	w.rt = rt
	w.interTable, w.bgTable = buildTable(interTableSize), buildTable(bgTableSize)
	w.interSum, w.bgSum = 0, 0
	for _, v := range w.interTable {
		w.interSum += v
	}
	for i := range w.bgTable {
		w.bgSum += bgLeaf(w.bgTable, i)
	}
	// Golden check on the quiet runtime, both shapes.
	if got := rt.Run(func(t *icilk.Task) any { return interScan(t, w.interTable) }).(int64); got != w.interSum {
		return fmt.Errorf("golden check: interactive reduce = %d, serial sum = %d", got, w.interSum)
	}
	if got := rt.Submit(1, func(t *icilk.Task) any { return bgPass(t, w.bgTable) }).Wait().(int64); got != w.bgSum {
		return fmt.Errorf("golden check: background reduce = %d, serial sum = %d", got, w.bgSum)
	}
	w.epoch = time.Now()
	w.bgPasses = w.bgPasses[:0]
	w.startBackground()
	return nil
}

func (w *mixedWorkload) startBackground() {
	w.bgStop.Store(false)
	w.bgWG.Add(1)
	go func() {
		defer w.bgWG.Done()
		for !w.bgStop.Load() {
			t0 := int64(time.Since(w.epoch))
			got := w.rt.Submit(1, func(t *icilk.Task) any { return bgPass(t, w.bgTable) }).Wait().(int64)
			if got != w.bgSum {
				w.bgBad.Add(1)
			}
			w.bgMu.Lock()
			w.bgPasses = append(w.bgPasses, bgPassRec{t0, int64(time.Since(w.epoch))})
			w.bgMu.Unlock()
		}
	}()
}

func (w *mixedWorkload) stopBackground() {
	w.bgStop.Store(true)
	w.bgWG.Wait()
}

func (w *mixedWorkload) teardown() {
	w.stopBackground()
	w.rt.Close()
}

func (w *mixedWorkload) runOpen(rec *phaseRec) {
	traced := rec.run != nil
	send := func(i int) {
		f := w.rt.Submit(0, func(t *icilk.Task) any {
			if traced {
				rec.run[i].Store(rec.since())
			}
			s := interScan(t, w.interTable)
			if traced {
				rec.ret[i].Store(rec.since())
			}
			return s
		})
		// Runs on the goroutine that completes the future (or here,
		// if it already has): no waiter goroutine per request.
		f.OnComplete(func(error) {
			v, _ := f.TryGet()
			s, ok := v.(int64)
			rec.complete(i, ok && s == w.interSum)
		})
	}
	pace(rec, send, func() {})
}

// runSat: background off, 2 x Workers clients each in a Submit->Wait
// loop.
func (w *mixedWorkload) runSat(dur time.Duration) satResult {
	w.stopBackground()
	res := closedLoop(2*nproc(), dur, func(client int, n int64) bool {
		v := w.rt.Submit(0, func(t *icilk.Task) any { return interScan(t, w.interTable) }).Wait()
		s, ok := v.(int64)
		return ok && s == w.interSum
	})
	w.startBackground()
	return res
}

func (w *mixedWorkload) counters() counters {
	var c counters
	readRuntime(&c, w.rt)
	return c
}

// passesDone counts background passes that finished inside the phase.
func (w *mixedWorkload) passesDone(rec *phaseRec) float64 {
	from := int64(rec.start.Sub(w.epoch))
	to := from + int64(rec.ph.dur)
	w.bgMu.Lock()
	defer w.bgMu.Unlock()
	n := 0
	for _, p := range w.bgPasses {
		if p.end >= from && p.end < to {
			n++
		}
	}
	return float64(n)
}

// opsDone counts a background pass as the interactive requests its
// leaves amount to (a request reduces 8 blocks, a pass 256). Four
// fifths of this workload's allocations and scheduler events come
// from the background job, whose pace follows the host's speed; per
// interactive request alone they moved 10 % between identical runs.
func (w *mixedWorkload) opsDone(rec *phaseRec) float64 {
	const passInRequests = (bgTableSize / bgGrain) / (interTableSize / interGrain)
	return correctIn(rec) + w.passesDone(rec)*passInRequests
}

func (w *mixedWorkload) failedExtra() int64 { return w.bgBad.Load() }
