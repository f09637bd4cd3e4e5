package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync/atomic"
	"time"

	"icilk/internal/xrand"
)

// op is one scheduled request. What kind, key and ver mean is up to
// the workload that generated it; the pacer only reads due.
type op struct {
	due  int64 // ns after phase start
	kind uint8
	conn uint8
	key  uint32
	ver  uint32
}

// phase is one stretch of a run. Open-loop phases carry the merged
// Poisson schedule of every request they issue, generated up front
// from the seed; the closed-loop sat phase has rate 0 and no ops.
type phase struct {
	name string
	dur  time.Duration
	rate float64 // requests per second offered
	ops  []op
}

// phaseSeed derives an independent stream per (seed, workload, phase)
// so adding a phase or a workload never shifts another's schedule.
func phaseSeed(seed uint64, workload, phase string) uint64 {
	h := sha256.Sum256([]byte(workload + "/" + phase))
	return xrand.Mix(seed, binary.LittleEndian.Uint64(h[:8]))
}

// poisson fills ph.ops with exponentially spaced arrivals at ph.rate
// over ph.dur; fill sets everything but due.
func poisson(ph *phase, r *xrand.Rand, fill func(r *xrand.Rand, o *op)) {
	meanGap := float64(time.Second) / ph.rate
	ph.ops = make([]op, 0, int(ph.rate*ph.dur.Seconds()*1.05)+16)
	for t := r.Exp(meanGap); t < float64(ph.dur); t += r.Exp(meanGap) {
		o := op{due: int64(t)}
		fill(r, &o)
		ph.ops = append(ph.ops, o)
	}
}

// scheduleHash fingerprints everything the program under test will be
// sent: same seed, same digest.
type scheduleHash struct{ h hash.Hash }

func newScheduleHash() *scheduleHash { return &scheduleHash{h: sha256.New()} }

func (s *scheduleHash) phase(ph *phase) {
	s.h.Write([]byte(ph.name))
	var b [18]byte
	for i := range ph.ops {
		o := &ph.ops[i]
		binary.LittleEndian.PutUint64(b[0:], uint64(o.due))
		b[8], b[9] = o.kind, o.conn
		binary.LittleEndian.PutUint32(b[10:], o.key)
		binary.LittleEndian.PutUint32(b[14:], o.ver)
		s.h.Write(b[:])
	}
}

func (s *scheduleHash) words(ws ...uint32) {
	var b [4]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint32(b[:], w)
		s.h.Write(b[:])
	}
}

func (s *scheduleHash) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

// phaseRec is what the client side observed of one open-loop phase.
// sent is written by the pacer alone. done is written once per request
// by whichever goroutine observed its completion: +t for a correct
// reply t ns after phase start, -t for a wrong one, 0 while
// outstanding.
type phaseRec struct {
	ph    *phase
	start time.Time
	sent  []int64
	done  []atomic.Int64
	ndone atomic.Int64

	// Traced sched_mixed runs also stamp the task body's first
	// instruction and its return (ns after phase start).
	run, ret []atomic.Int64
}

func newPhaseRec(ph *phase) *phaseRec {
	return &phaseRec{ph: ph, sent: make([]int64, len(ph.ops)), done: make([]atomic.Int64, len(ph.ops))}
}

// since is the phase clock; never 0, so 0 can mean "outstanding".
func (r *phaseRec) since() int64 { return int64(time.Since(r.start)) + 1 }

func (r *phaseRec) complete(i int, correct bool) {
	t := r.since()
	if !correct {
		t = -t
	}
	r.done[i].Store(t)
	r.ndone.Add(1)
}

// pace is the load generator: one goroutine that sleeps to the next
// due time, then issues everything already due and flushes. It never
// waits for the server; how late it ran is sent[i]-due.
//
// Sizing this benchmark measured the alternatives: per-connection
// time.Sleep senders put a 0.6-0.8 ms floor under every sample, a
// Gosched spin pacer starves completion goroutines under load
// (p50 4.6 ms), and a LockOSThread+Nanosleep pacer cannot get a P
// back under worker saturation (p50 11 ms). time.Sleep alone is no
// better while the process is mostly idle: see tickPeriod.
func pace(rec *phaseRec, send func(i int), flush func()) {
	stopTick, err := startTick(tickPeriod)
	if err != nil {
		panic("benchmark: timerfd: " + err.Error())
	}
	defer stopTick()
	ops := rec.ph.ops
	for i := 0; i < len(ops); {
		now := rec.since()
		if ops[i].due > now {
			flush()
			time.Sleep(time.Duration(ops[i].due - now))
			continue
		}
		rec.sent[i] = now
		send(i)
		i++
	}
	flush()
}

// drain waits for the phase's outstanding requests, up to limit.
func (r *phaseRec) drain(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for r.ndone.Load() < int64(len(r.done)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}
