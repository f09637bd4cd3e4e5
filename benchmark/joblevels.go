package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"icilk"
	"icilk/internal/jobserver"
	"icilk/internal/xrand"
)

// job_levels: no sockets. The paper's job server — four classes of
// genuinely parallel jobs (mm, fib, sort, sw) at priority levels 0-3 —
// under a uniform Poisson mix, so parallel work arrives at every
// level at once.

// jobConfig sizes the classes so one of each runs solo in about
// 11/22/230/20 us here: small enough that scheduling, not the
// kernels, dominates a request.
var jobConfig = jobserver.Config{MMSize: 16, FibN: 16, SortSize: 2048, SWSize: 64}

// goldenSeqs is how many inputs per class have a committed reference
// checksum; requests cycle through them so every reply is checkable.
const goldenSeqs = 64

//go:embed golden_jobserver.json
var goldenJSON []byte

// goldenTable is checksum bits by class name then seq. mm's float64
// sum is stored as its IEEE bits, the integer checksums as
// two's-complement.
type goldenTable map[string][]uint64

func loadGolden() (goldenTable, error) {
	var g goldenTable
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden_jobserver.json: %w", err)
	}
	for _, name := range jobserver.OpNames {
		if len(g[name]) != goldenSeqs {
			return nil, fmt.Errorf("golden_jobserver.json: class %s has %d checksums, want %d", name, len(g[name]), goldenSeqs)
		}
	}
	return g, nil
}

// checksumBits normalises a job's result for comparison.
func checksumBits(v any) (uint64, bool) {
	switch x := v.(type) {
	case float64:
		return math.Float64bits(x), true
	case int64:
		return uint64(x), true
	case int:
		return uint64(x), true
	}
	return 0, false
}

// computeGolden regenerates the table on a one-worker runtime (the
// `golden` subcommand prints it).
func computeGolden() (goldenTable, error) {
	rt, err := icilk.New(icilk.Config{Workers: 1, Levels: jobserver.Levels})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	srv, err := jobserver.New(rt, jobConfig)
	if err != nil {
		return nil, err
	}
	g := goldenTable{}
	for class, name := range jobserver.OpNames {
		for seq := int64(0); seq < goldenSeqs; seq++ {
			bits, ok := checksumBits(srv.Do(class, seq).Wait())
			if !ok {
				return nil, fmt.Errorf("class %s returned an unexpected type", name)
			}
			g[name] = append(g[name], bits)
		}
	}
	return g, nil
}

type jobWorkload struct {
	workloadBase
	golden goldenTable
	rt     *icilk.Runtime
	srv    *jobserver.Server
}

func newJobs(rates phaseRates) *jobWorkload {
	return &jobWorkload{workloadBase: workloadBase{wname: "job_levels", rates: rates, limit: 10 * time.Millisecond,
		primary: jobserver.LevelMM}}
}

func (w *jobWorkload) generate(seed uint64, phases []*phase, h *scheduleHash) {
	w.seed = seed
	for _, ph := range phases {
		if ph.rate == 0 {
			continue
		}
		poisson(ph, xrand.New(phaseSeed(seed, w.wname, ph.name)), func(r *xrand.Rand, o *op) {
			o.kind = uint8(r.Intn(jobserver.Levels))
			o.key = uint32(r.Intn(goldenSeqs))
		})
		h.phase(ph)
	}
	h.words(uint32(jobConfig.MMSize), uint32(jobConfig.FibN), uint32(jobConfig.SortSize), uint32(jobConfig.SWSize))
}

func (w *jobWorkload) check(class int, seq int64, v any) bool {
	bits, ok := checksumBits(v)
	return ok && bits == w.golden[jobserver.OpNames[class]][seq]
}

func (w *jobWorkload) setup(bool) error {
	var err error
	if w.golden == nil {
		if w.golden, err = loadGolden(); err != nil {
			return err
		}
	}
	w.rt, err = icilk.New(icilk.Config{Workers: nproc(), IOThreads: nproc(), Levels: jobserver.Levels, Scheduler: icilk.Prompt})
	if err != nil {
		return err
	}
	if w.srv, err = jobserver.New(w.rt, jobConfig); err != nil {
		return err
	}
	for class, name := range jobserver.OpNames {
		for seq := int64(0); seq < goldenSeqs; seq++ {
			if !w.check(class, seq, w.srv.Do(class, seq).Wait()) {
				return fmt.Errorf("golden check: class %s seq %d does not match golden_jobserver.json", name, seq)
			}
		}
	}
	return nil
}

func (w *jobWorkload) teardown() { w.rt.Close() }

func (w *jobWorkload) runOpen(rec *phaseRec) {
	ops := rec.ph.ops
	send := func(i int) {
		class, seq := int(ops[i].kind), int64(ops[i].key)
		f := w.srv.Do(class, seq)
		f.OnComplete(func(error) {
			v, _ := f.TryGet()
			rec.complete(i, w.check(class, seq, v))
		})
	}
	pace(rec, send, func() {})
}

// runSat: 4 x Workers clients, each cycling through the classes.
func (w *jobWorkload) runSat(dur time.Duration) satResult {
	return closedLoop(4*nproc(), dur, func(client int, n int64) bool {
		class, seq := (client+int(n))%jobserver.Levels, n%goldenSeqs
		return w.check(class, seq, w.srv.Do(class, seq).Wait())
	})
}

func (w *jobWorkload) counters() counters {
	var c counters
	readRuntime(&c, w.rt)
	return c
}

func (w *jobWorkload) opsDone(rec *phaseRec) float64 { return correctIn(rec) }
