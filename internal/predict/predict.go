// Package predict is a service-time predictor: a TAGE-style
// tagged-history table bank that learns, from measured service times
// fed back at completion, how long a request of a given class will
// run. Nothing in the runtime uses it any more (admission control
// sheds by priority alone; DESIGN.md, "Tried and removed"). It lives
// only for the pinned benchmark's predict.predict_ns and
// predict.update_ns probes, and is deleted together with those rows by
// the next [benchmark] change.
//
// The design ports the branch-predictor playbook (Seznec's TAGE) to
// request scheduling:
//
//   - A base table, direct-mapped on the request class alone (opcode ×
//     value-size bucket), always provides a fallback prediction — the
//     bimodal table of a branch predictor.
//   - Two or three tagged tables indexed by a hash of the class AND a
//     geometric-length suffix of the recent class path (the last 2, 4,
//     8 completions by default). The longest-history hit wins, exactly
//     TAGE's provider rule.
//   - Each entry carries a saturating confidence counter and a useful
//     counter that makes entries resist replacement while they are
//     paying their way. Allocation on a misprediction decrements
//     victims' useful bits first — the aging that keeps one noisy class
//     from wiping the bank.
//
// Every structure is a fixed-size array of packed atomic words:
// Predict performs only atomic loads and arithmetic (zero allocation,
// no locks — verified by TestPredictPathDoesNotAllocate). Update is
// CAS-based.
package predict

import (
	"fmt"
	"sync/atomic"
	"time"

	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
	"icilk/internal/stats"
	"icilk/internal/xrand"
)

// Class identifies a request class: an application-defined opcode and
// a value-size bucket. Two requests in one class are
// expected to have similar service times; the tagged tables then
// separate history-dependent cost variation within a class.
type Class struct {
	// Op is the application opcode (memcached command, email
	// operation, job kind, ...). Values only need to be stable, not
	// dense.
	Op uint8
	// Size is the value-size bucket, e.g. the bit length of the
	// payload length; 0 for sizeless operations.
	Size uint8
}

// key folds a class into the 16-bit value hashed into every index.
func (c Class) key() uint64 { return uint64(c.Op)<<8 | uint64(c.Size) }

func (c Class) String() string { return fmt.Sprintf("op%d/sz%d", c.Op, c.Size) }

// Entry packing: one atomic uint64 per table slot.
//
//	bits  0..37  service-time estimate, nanoseconds (≈275s max)
//	bits 38..49  partial tag (tagged tables; 0 in the base table)
//	bits 50..52  confidence, saturating 0..7
//	bits 53..54  useful, saturating 0..3
//	bit  55      valid
const (
	valueBits  = 38
	valueMask  = 1<<valueBits - 1
	tagShift   = valueBits
	tagBits    = 12
	tagMask    = 1<<tagBits - 1
	confShift  = tagShift + tagBits
	confMask   = 0x7
	ConfMax    = 7 // saturation ceiling of the confidence counter
	usefShift  = confShift + 3
	usefMask   = 0x3
	usefMax    = 3
	validShift = usefShift + 2
	validBit   = uint64(1) << validShift
)

func packEntry(valNS int64, tag, conf, usef uint64) uint64 {
	if valNS < 0 {
		valNS = 0
	}
	if valNS > valueMask {
		valNS = valueMask
	}
	return uint64(valNS) | tag<<tagShift | conf<<confShift | usef<<usefShift | validBit
}

func entryVal(e uint64) int64   { return int64(e & valueMask) }
func entryTag(e uint64) uint64  { return e >> tagShift & tagMask }
func entryConf(e uint64) uint64 { return e >> confShift & confMask }
func entryUsef(e uint64) uint64 { return e >> usefShift & usefMask }
func entryValid(e uint64) bool  { return e&validBit != 0 }

// Config sizes the predictor. The zero value is usable (defaults in
// parentheses).
type Config struct {
	// BaseBits is log2 of the base-table entry count (10 → 1024).
	BaseBits int
	// TableBits is log2 of each tagged table's entry count (9 → 512).
	TableBits int
	// HistoryLengths gives each tagged table's class-path history
	// length in completions, shortest first; lengths must be in [1, 8]
	// and there may be at most 4 tables ({2, 4, 8} — geometric, like
	// TAGE's history series).
	HistoryLengths []int
	// EWMAShift is the estimate's exponential-moving-average step:
	// new = old + (measured-old)/2^EWMAShift (3 → 1/8).
	EWMAShift int
	// MispredictTolerance is the relative error within which a
	// prediction counts as correct, e.g. 0.25 = ±25% (0.25). Absolute
	// errors under 20µs are always tolerated, so microsecond jitter on
	// microsecond requests does not thrash confidence.
	MispredictTolerance float64
}

func (c *Config) applyDefaults() error {
	if c.BaseBits <= 0 {
		c.BaseBits = 10
	}
	if c.TableBits <= 0 {
		c.TableBits = 9
	}
	if c.BaseBits > 20 || c.TableBits > 20 {
		return fmt.Errorf("predict: table bits out of range (base %d, tagged %d; max 20)", c.BaseBits, c.TableBits)
	}
	if c.HistoryLengths == nil {
		c.HistoryLengths = []int{2, 4, 8}
	}
	if len(c.HistoryLengths) > 4 {
		return fmt.Errorf("predict: at most 4 tagged tables, got %d", len(c.HistoryLengths))
	}
	for i, h := range c.HistoryLengths {
		if h < 1 || h > 8 {
			return fmt.Errorf("predict: history length %d out of range [1,8]", h)
		}
		if i > 0 && h <= c.HistoryLengths[i-1] {
			return fmt.Errorf("predict: history lengths must be strictly increasing, got %v", c.HistoryLengths)
		}
	}
	if c.EWMAShift <= 0 {
		c.EWMAShift = 3
	}
	if c.MispredictTolerance <= 0 {
		c.MispredictTolerance = 0.25
	}
	return nil
}

// absTolerance is the absolute error always forgiven by the
// mispredict classification (see Config.MispredictTolerance).
const absTolerance = 20 * time.Microsecond

// table is one tagged (or base) table: a power-of-two array of packed
// entries plus its hit/alias accounting.
type table struct {
	entries []atomic.Uint64
	mask    uint64
	histLen int // class-path completions hashed into the index; 0 = base

	hits    atomic.Int64 // provider hits (Predict served from here)
	aliases atomic.Int64 // tag replacements (a new class evicted a live entry)
}

// Predictor is a concurrent service-time predictor. All methods are
// safe for concurrent use from any goroutine.
type Predictor struct {
	cfg  Config
	base table
	tag  []table // shortest history first

	// hist is the global class-path register: each completion shifts
	// in one hashed byte of its class, so the low 8k bits are the last
	// k completions. Updated with a CAS loop; a lost race only skews
	// the (already approximate) path hash.
	hist atomic.Uint64

	predictions  atomic.Int64 // Predict calls that returned a valid estimate
	noPrediction atomic.Int64 // Predict calls with no valid entry anywhere
	updates      atomic.Int64
	misses       atomic.Int64 // updates whose provider prediction was outside tolerance

	absErrSum atomic.Int64 // ns, summed prediction error
	absErr    *stats.Histogram
}

// New builds a predictor. The zero Config is usable.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	p := &Predictor{cfg: cfg, absErr: stats.NewHistogram()}
	p.base = newTable(cfg.BaseBits, 0)
	p.tag = make([]table, len(cfg.HistoryLengths))
	for i, h := range cfg.HistoryLengths {
		p.tag[i] = newTable(cfg.TableBits, h)
	}
	return p, nil
}

func newTable(bitsLog int, histLen int) table {
	n := 1 << bitsLog
	return table{entries: make([]atomic.Uint64, n), mask: uint64(n - 1), histLen: histLen}
}

// foldHist extracts the low histLen completions (8 bits each) of the
// path register.
func foldHist(hist uint64, histLen int) uint64 {
	if histLen >= 8 {
		return hist
	}
	return hist & (1<<(8*histLen) - 1)
}

// index and tag hashes. Two different mixes of the same (class, path)
// pair keep index aliasing and tag aliasing independent, as TAGE's
// separate index/tag hash functions do.
func (t *table) index(key, hist uint64) uint64 {
	return xrand.Mix(key, foldHist(hist, t.histLen)) & t.mask
}

func (t *table) tagFor(key, hist uint64) uint64 {
	h := xrand.Mix(key^0x9e3779b97f4a7c15, foldHist(hist, t.histLen))
	tg := h & tagMask
	if tg == 0 {
		tg = 1 // tag 0 is reserved for the base table's untagged entries
	}
	return tg
}

// lookup finds the provider entry for class c under the current
// history: the longest-history tagged table whose entry is valid and
// tag-matches, else the base table. It returns the provider table
// index (-1 = base), the slot, and the loaded entry word (0 when no
// valid entry exists anywhere).
func (p *Predictor) lookup(key, hist uint64) (ti int, slot uint64, e uint64) {
	for i := len(p.tag) - 1; i >= 0; i-- {
		t := &p.tag[i]
		s := t.index(key, hist)
		w := t.entries[s].Load()
		if entryValid(w) && entryTag(w) == t.tagFor(key, hist) {
			return i, s, w
		}
	}
	s := p.base.index(key, 0)
	w := p.base.entries[s].Load()
	if entryValid(w) {
		return -1, s, w
	}
	return -1, s, 0
}

// Predict returns the predicted service time for one request of class
// c and the provider entry's confidence (0..ConfMax). ok is false when
// no table holds a valid entry for the class — the caller then has no
// basis for a cost-aware decision and should fall back to its reactive
// policy (callers should also apply their own confidence floor).
// Zero-allocation and lock-free.
func (p *Predictor) Predict(c Class) (est time.Duration, conf uint8, ok bool) {
	if invariant.Enabled {
		// The read half of the predict/update race: a concurrent Update
		// may be mid-flight between its history shift and its entry CAS.
		perturb.At(perturb.Predict)
	}
	ti, _, e := p.lookup(c.key(), p.hist.Load())
	if e == 0 {
		p.noPrediction.Add(1)
		return 0, 0, false
	}
	p.predictions.Add(1)
	if ti >= 0 {
		p.tag[ti].hits.Add(1)
	} else {
		p.base.hits.Add(1)
	}
	return time.Duration(entryVal(e)), uint8(entryConf(e)), true
}

// Update feeds one measured service time back into the predictor (the
// completion-path hook). It scores the provider's prediction against
// the measurement (mispredict accounting), moves the provider's
// estimate toward it, adjusts confidence, on a misprediction tries to
// allocate an entry in a longer-history table (aging victims' useful
// counters), and shifts the class into the global path register.
func (p *Predictor) Update(c Class, svc time.Duration) {
	ns := svc.Nanoseconds()
	if ns < 0 {
		return
	}
	if ns > valueMask {
		ns = valueMask
	}
	key := c.key()
	hist := p.hist.Load()
	p.updates.Add(1)

	ti, slot, e := p.lookup(key, hist)
	if invariant.Enabled {
		// The write half of the predict/update race: the provider has
		// been chosen from a history snapshot that a concurrent Update
		// may be about to advance.
		perturb.At(perturb.Predict)
	}
	mispredicted := false
	if e != 0 {
		err := entryVal(e) - ns
		if err < 0 {
			err = -err
		}
		p.absErrSum.Add(err)
		p.absErr.Record(time.Duration(err))
		tol := int64(float64(ns) * p.cfg.MispredictTolerance)
		if tol < int64(absTolerance) {
			tol = int64(absTolerance)
		}
		mispredicted = err > tol
		if mispredicted {
			p.misses.Add(1)
		}
		p.updateEntry(ti, slot, key, hist, e, ns, mispredicted)
	} else {
		// Cold class: seed the base table at full value, low confidence.
		p.base.entries[slot].CompareAndSwap(0, packEntry(ns, 0, 1, 0))
		p.misses.Add(1) // a prediction-free decision is a miss by definition
		mispredicted = true
	}

	if mispredicted {
		p.allocate(ti, key, hist, ns)
	}

	// Shift the class into the path register last, so this request's
	// own completion does not perturb the history its entry was trained
	// under.
	hb := xrand.Mix(key, 0xa11ce) & 0xff
	for {
		old := p.hist.Load()
		if p.hist.CompareAndSwap(old, old<<8|hb) {
			break
		}
	}
}

// updateEntry moves the provider entry toward the measurement and
// adjusts its confidence/useful counters (CAS loop; a lost race means
// a concurrent update already trained the entry).
func (p *Predictor) updateEntry(ti int, slot uint64, key, hist uint64, old uint64, ns int64, mispredicted bool) {
	t := &p.base
	tag := uint64(0)
	if ti >= 0 {
		t = &p.tag[ti]
		tag = t.tagFor(key, hist)
	}
	for {
		val := entryVal(old)
		val += (ns - val) >> p.cfg.EWMAShift
		if val == entryVal(old) && ns != entryVal(old) {
			// Sub-resolution step: nudge by one so the EWMA cannot stall
			// short of a nearby target.
			if ns > val {
				val++
			} else {
				val--
			}
		}
		conf := entryConf(old)
		usef := entryUsef(old)
		if mispredicted {
			conf >>= 1 // confidence ages fast on error
		} else {
			if conf < ConfMax {
				conf++
			}
			if usef < usefMax {
				usef++
			}
		}
		if t.entries[slot].CompareAndSwap(old, packEntry(val, tag, conf, usef)) {
			return
		}
		old = t.entries[slot].Load()
		if !entryValid(old) || (ti >= 0 && entryTag(old) != tag) {
			return // entry was evicted underneath us; let the new owner train
		}
	}
}

// allocate tries to install a new entry for (class, history) in one
// table with a longer history than the mispredicting provider
// (provider -1 = base). TAGE's aging rule: a victim with useful > 0 is
// not evicted — its useful counter is decremented instead — so an
// entry must mispredict repeatedly near a live victim before the
// victim is finally replaced; each replacement of a valid entry counts
// as an alias.
func (p *Predictor) allocate(provider int, key, hist uint64, ns int64) {
	for i := provider + 1; i < len(p.tag); i++ {
		t := &p.tag[i]
		slot := t.index(key, hist)
		tag := t.tagFor(key, hist)
		old := t.entries[slot].Load()
		if entryValid(old) && entryTag(old) == tag {
			continue // already present (another update raced us in)
		}
		if entryValid(old) && entryUsef(old) > 0 {
			// Live victim: age it and try the next table.
			t.entries[slot].CompareAndSwap(old,
				packEntry(entryVal(old), entryTag(old), entryConf(old), entryUsef(old)-1))
			continue
		}
		if t.entries[slot].CompareAndSwap(old, packEntry(ns, tag, 0, 0)) {
			if entryValid(old) {
				t.aliases.Add(1)
			}
			return
		}
		return // racing allocator won the slot this round
	}
}

// Predictions returns the count of Predict calls served by a valid
// entry.
func (p *Predictor) Predictions() int64 { return p.predictions.Load() }

// Misses returns the count of updates whose provider prediction was
// outside tolerance (including prediction-free cold classes).
func (p *Predictor) Misses() int64 { return p.misses.Load() }

// Updates returns the count of completed-request feedbacks.
func (p *Predictor) Updates() int64 { return p.updates.Load() }
