package predict

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hits returns the provider hits of the base table and, summed, of the
// tagged tables.
func hits(p *Predictor) (base, tagged int64) {
	for i := range p.tag {
		tagged += p.tag[i].hits.Load()
	}
	return p.base.hits.Load(), tagged
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{BaseBits: 21},
		{TableBits: 25},
		{HistoryLengths: []int{0}},
		{HistoryLengths: []int{9}},
		{HistoryLengths: []int{2, 2}},
		{HistoryLengths: []int{4, 2}},
		{HistoryLengths: []int{1, 2, 3, 4, 5}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: New accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := New(Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

func TestColdStartNoPrediction(t *testing.T) {
	p, _ := New(Config{})
	if _, _, ok := p.Predict(Class{Op: 1, Size: 2}); ok {
		t.Fatal("fresh predictor returned a prediction")
	}
	if p.noPrediction.Load() != 1 || p.Predictions() != 0 {
		t.Fatalf("counters after cold miss: noPrediction=%d predictions=%d", p.noPrediction.Load(), p.Predictions())
	}
}

// TestLearningConvergence drives a stable class and checks the
// predictor converges on its service time at full confidence, with
// mispredicts confined to the cold start.
func TestLearningConvergence(t *testing.T) {
	p, _ := New(Config{})
	c := Class{Op: 3, Size: 7}
	const svc = time.Millisecond
	for i := 0; i < 100; i++ {
		p.Update(c, svc)
	}
	est, conf, ok := p.Predict(c)
	if !ok {
		t.Fatal("no prediction after training")
	}
	if conf != ConfMax {
		t.Fatalf("confidence = %d after stable training, want %d", conf, ConfMax)
	}
	if err := (est - svc).Abs(); err > svc/10 {
		t.Fatalf("estimate %v not within 10%% of %v", est, svc)
	}
	// The cold-start miss is expected; a converged predictor must not
	// keep missing a constant-cost class.
	if m := p.Misses(); m > 5 {
		t.Fatalf("%d mispredicts over 100 constant-cost updates", m)
	}
	if u := p.Updates(); u != 100 {
		t.Fatalf("Updates() = %d, want 100", u)
	}
}

// TestConfidenceAgesOnMispredict trains a class to saturation and then
// feeds a wildly different measurement: confidence must halve on each
// error so stale estimates lose their admission-gating power fast.
func TestConfidenceAgesOnMispredict(t *testing.T) {
	p, _ := New(Config{})
	c := Class{Op: 4, Size: 1}
	for i := 0; i < 50; i++ {
		p.Update(c, time.Millisecond)
	}
	if _, conf, _ := p.Predict(c); conf != ConfMax {
		t.Fatalf("confidence = %d before phase change, want %d", conf, ConfMax)
	}
	p.Update(c, 50*time.Millisecond)
	_, conf, ok := p.Predict(c)
	if !ok {
		t.Fatal("prediction vanished on phase change")
	}
	if conf > ConfMax/2 {
		t.Fatalf("confidence = %d after mispredict, want <= %d", conf, ConfMax/2)
	}
	// An erratic class (every measurement far outside tolerance of the
	// last) can never hold confidence: each provider halves on every
	// error and freshly allocated entries start at zero.
	for i := 0; i < 6; i++ {
		p.Update(c, time.Duration(10<<uint(i))*time.Millisecond)
	}
	if _, conf, _ := p.Predict(c); conf > 1 {
		t.Fatalf("confidence = %d for an erratic class", conf)
	}
}

// TestValueRollover checks the 38-bit estimate field saturates instead
// of wrapping: absurd measured times clamp to the ~275s ceiling, and
// negative ones are dropped.
func TestValueRollover(t *testing.T) {
	p, _ := New(Config{})
	c := Class{Op: 5, Size: 5}
	for i := 0; i < 200; i++ {
		p.Update(c, time.Hour) // 3.6e12 ns >> valueMask
	}
	est, _, ok := p.Predict(c)
	if !ok {
		t.Fatal("no prediction")
	}
	if est > time.Duration(valueMask) {
		t.Fatalf("estimate %v exceeds the packed-field ceiling %v", est, time.Duration(valueMask))
	}
	if est < time.Duration(valueMask)/2 {
		t.Fatalf("estimate %v did not converge toward the clamped ceiling", est)
	}
	before := p.Updates()
	p.Update(c, -time.Second)
	if p.Updates() != before {
		t.Fatal("negative service time was counted as an update")
	}
}

// TestAllocateAgingAndAlias is a white-box check of TAGE's replacement
// rule: a live (useful > 0) victim in a tagged slot is aged, not
// evicted, one step per allocation attempt; only once its useful
// counter hits zero does the next allocation replace it, counting an
// alias.
func TestAllocateAgingAndAlias(t *testing.T) {
	p, _ := New(Config{})
	c := Class{Op: 9, Size: 3}
	key := c.key()

	// Plant a differently-tagged live victim in every tagged table at
	// the slot class c hashes to under an empty history. Tag 0 never
	// matches tagFor, so the victims always mismatch.
	for i := range p.tag {
		tb := &p.tag[i]
		tb.entries[tb.index(key, 0)].Store(packEntry(1000, 0, 3, usefMax))
	}

	// Each allocation round ages every victim by one (age -> continue to
	// the next table), evicting none.
	for round := 1; round <= usefMax; round++ {
		p.allocate(-1, key, 0, 7777)
		for i := range p.tag {
			tb := &p.tag[i]
			e := tb.entries[tb.index(key, 0)].Load()
			if entryTag(e) != 0 || entryVal(e) != 1000 {
				t.Fatalf("round %d: table %d victim evicted early: %#x", round, i, e)
			}
			if got := entryUsef(e); got != uint64(usefMax-round) {
				t.Fatalf("round %d: table %d useful = %d, want %d", round, i, got, usefMax-round)
			}
			if tb.aliases.Load() != 0 {
				t.Fatalf("round %d: alias counted while victims were live", round)
			}
		}
	}

	// All victims are now at useful 0: the next allocation replaces the
	// first table's victim and stops there.
	p.allocate(-1, key, 0, 7777)
	t0 := &p.tag[0]
	e := t0.entries[t0.index(key, 0)].Load()
	if entryTag(e) != t0.tagFor(key, 0) || entryVal(e) != 7777 {
		t.Fatalf("allocation did not install the new entry: %#x", e)
	}
	if entryConf(e) != 0 || entryUsef(e) != 0 {
		t.Fatalf("new entry not installed cold: conf=%d usef=%d", entryConf(e), entryUsef(e))
	}
	if got := t0.aliases.Load(); got != 1 {
		t.Fatalf("table 0 aliases = %d, want 1", got)
	}
	for i := 1; i < len(p.tag); i++ {
		tb := &p.tag[i]
		if e := tb.entries[tb.index(key, 0)].Load(); entryVal(e) != 1000 {
			t.Fatalf("table %d touched after install: %#x", i, e)
		}
	}
}

// TestTaggedTableSeparatesHistory exercises the predictor's reason to
// exist: one class whose cost depends on what completed just before
// it. The base table can only learn the blend; a tagged
// history-indexed entry learns each context. After training, the
// prediction must track the context.
func TestTaggedTableSeparatesHistory(t *testing.T) {
	p, _ := New(Config{})
	a := Class{Op: 1, Size: 1}
	b := Class{Op: 2, Size: 1}
	x := Class{Op: 3, Size: 1}
	const afterA = time.Millisecond
	const afterB = 8 * time.Millisecond
	for i := 0; i < 400; i++ {
		p.Update(a, 500*time.Microsecond)
		p.Update(x, afterA)
		p.Update(b, 500*time.Microsecond)
		p.Update(x, afterB)
	}
	// Recreate each context and read the prediction for x.
	p.Update(a, 500*time.Microsecond)
	estA, _, okA := p.Predict(x)
	p.Update(x, afterA) // keep the training pattern intact
	p.Update(b, 500*time.Microsecond)
	estB, _, okB := p.Predict(x)
	if !okA || !okB {
		t.Fatal("no prediction in a trained context")
	}
	if estA >= estB {
		t.Fatalf("history-blind predictions: after-A %v >= after-B %v", estA, estB)
	}
	if estA > 3*afterA {
		t.Fatalf("after-A estimate %v nowhere near %v", estA, afterA)
	}
	if estB < afterB/3 {
		t.Fatalf("after-B estimate %v nowhere near %v", estB, afterB)
	}
	// The tagged tables, not the base table, must be providing.
	if _, taggedHits := hits(p); taggedHits == 0 {
		t.Fatal("no tagged-table provider hits despite history-dependent costs")
	}
}

// TestAliasingUnderPressure crams far more (class, history) pairs than
// tiny tagged tables can hold and checks the accounting stays sane:
// aliases are counted and the predictor keeps answering.
func TestAliasingUnderPressure(t *testing.T) {
	p, err := New(Config{BaseBits: 4, TableBits: 2, HistoryLengths: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		c := Class{Op: uint8(i % 37), Size: uint8(i % 11)}
		// Costs spread over two decades so most provider predictions
		// mispredict, forcing constant allocation pressure.
		p.Update(c, time.Duration(100+(i%100)*90)*time.Microsecond)
	}
	var aliases int64
	for i := range p.tag {
		aliases += p.tag[i].aliases.Load()
	}
	if aliases == 0 {
		t.Fatal("no aliases recorded despite 407 classes in 4-entry tagged tables")
	}
	if p.Updates() != 4000 {
		t.Fatalf("Updates = %d, want 4000", p.Updates())
	}
	if m := p.Misses(); m <= 0 || m > 4000 {
		t.Fatalf("Misses = %d out of range", m)
	}
	if _, _, ok := p.Predict(Class{Op: 1, Size: 1}); !ok {
		// Op 1 / Size 1 was updated recently enough that at least the
		// base table must hold it.
		t.Fatal("predictor stopped answering under aliasing pressure")
	}
}

// TestPredictPathDoesNotAllocate pins the package-doc promise: Predict
// is atomic loads and arithmetic only, so admission can call it on the
// shed decision path without touching the allocator.
func TestPredictPathDoesNotAllocate(t *testing.T) {
	p, _ := New(Config{})
	c := Class{Op: 6, Size: 4}
	for i := 0; i < 32; i++ {
		p.Update(c, 2*time.Millisecond)
	}
	var est time.Duration
	allocs := testing.AllocsPerRun(200, func() {
		est, _, _ = p.Predict(c)
	})
	if allocs != 0 {
		t.Fatalf("Predict allocated %v times per call", allocs)
	}
	if est == 0 {
		t.Fatal("prediction lost during alloc measurement")
	}
}

// TestConcurrentUpdatePredict hammers Update and Predict from many
// goroutines at once; under -race this checks the lock-free paths, and
// the counter identities must hold exactly afterwards.
func TestConcurrentUpdatePredict(t *testing.T) {
	p, _ := New(Config{TableBits: 4}) // small tables: maximize CAS contention
	const (
		workers = 4
		iters   = 2000
	)
	var predictCalls atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := Class{Op: uint8((w*31 + i) % 17), Size: uint8(i % 5)}
				if i%2 == 0 {
					p.Update(c, time.Duration(100+i%900)*time.Microsecond)
				} else {
					est, conf, ok := p.Predict(c)
					predictCalls.Add(1)
					if ok && (est < 0 || est > time.Duration(valueMask) || conf > ConfMax) {
						t.Errorf("torn prediction: est=%v conf=%d", est, conf)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if u := p.Updates(); u != workers*iters/2 {
		t.Fatalf("Updates = %d, want %d", u, workers*iters/2)
	}
	if p.Predictions()+p.noPrediction.Load() != predictCalls.Load() {
		t.Fatalf("predictions %d + noPrediction %d != calls %d",
			p.Predictions(), p.noPrediction.Load(), predictCalls.Load())
	}
	if base, tagged := hits(p); base+tagged != p.Predictions() {
		t.Fatalf("per-table hits %d != predictions %d", base+tagged, p.Predictions())
	}
}
