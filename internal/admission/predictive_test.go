package admission

import (
	"errors"
	"strings"
	"testing"
	"time"

	"icilk/internal/metrics"
	"icilk/internal/predict"
	"icilk/internal/sched"
)

// trainClass drives the controller's predictor to a confident estimate
// for cls without going through the admission path.
func trainClass(t *testing.T, c *Controller, cls predict.Class, svc time.Duration) {
	t.Helper()
	p := c.Predictor()
	if p == nil {
		t.Fatal("Predictive controller has no predictor")
	}
	for i := 0; i < 50; i++ {
		p.Update(cls, svc)
	}
	est, conf, ok := p.Predict(cls)
	if !ok || conf < c.predMinConf {
		t.Fatalf("training failed: est=%v conf=%d ok=%v", est, conf, ok)
	}
}

// TestPredictiveShedsOnPredictedMiss is the policy's core property:
// once the predicted backlog plus the arrival's own predicted service
// time exceeds its deadline slack, the arrival is shed with
// ErrPredicted — before any queue has formed, which is exactly what
// the reactive policies cannot do.
func TestPredictiveShedsOnPredictedMiss(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{
		Policy:         Predictive,
		QueueCap:       64,
		Timeout:        10 * time.Millisecond,
		PredictWorkers: 1,
	})
	cls := predict.Class{Op: 7, Size: 4}
	trainClass(t, c, cls, 8*time.Millisecond)

	// Empty backlog: 0 + 8ms < 10ms slack -> admit, charging ~8ms.
	tk, err := c.AcquireClass(0, cls)
	if err != nil {
		t.Fatalf("first arrival shed with an empty backlog: %v", err)
	}
	if tk.charge < int64(4*time.Millisecond) {
		t.Fatalf("admitted charge = %v, want ~8ms", time.Duration(tk.charge))
	}
	if got := c.Stats().PerLevel[0].BacklogNS; got != tk.charge {
		t.Fatalf("backlog = %d after admit, want the charge %d", got, tk.charge)
	}

	// Second identical arrival: ~8ms backlog + ~8ms service > 10ms
	// slack -> predicted miss.
	if _, err := c.AcquireClass(0, cls); !errors.Is(err, ErrPredicted) {
		t.Fatalf("second arrival err = %v, want ErrPredicted", err)
	}
	if !errors.Is(ErrPredicted, ErrShed) {
		t.Fatal("ErrPredicted must wrap ErrShed")
	}
	s := c.Stats().PerLevel[0]
	if s.PredictShed != 1 || s.Shed != 1 {
		t.Fatalf("predictShed=%d shed=%d, want 1/1", s.PredictShed, s.Shed)
	}

	// Releasing the in-flight request un-charges the backlog; the next
	// arrival fits again.
	c.Release(tk, false)
	if got := c.Stats().PerLevel[0].BacklogNS; got != 0 {
		t.Fatalf("backlog = %d after release, want 0", got)
	}
	tk, err = c.AcquireClass(0, cls)
	if err != nil {
		t.Fatalf("arrival after release shed: %v", err)
	}
	c.Release(tk, false)
}

// TestPredictiveArrivalSlack: queueing before admission (the wire-read
// to admission wait reported via AcquireClassSince) is spent slack —
// a request that arrived long ago is doomed even with an empty
// backlog.
func TestPredictiveArrivalSlack(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{
		Policy:         Predictive,
		QueueCap:       64,
		Timeout:        10 * time.Millisecond,
		PredictWorkers: 1,
	})
	cls := predict.Class{Op: 7, Size: 4}
	trainClass(t, c, cls, 8*time.Millisecond)

	// 9ms already queued: 1ms slack left < 8ms predicted service.
	if _, err := c.AcquireClassSince(0, cls, time.Now().Add(-9*time.Millisecond)); !errors.Is(err, ErrPredicted) {
		t.Fatalf("stale arrival err = %v, want ErrPredicted", err)
	}
	// A fresh arrival of the same class fits.
	tk, err := c.AcquireClassSince(0, cls, time.Now())
	if err != nil {
		t.Fatalf("fresh arrival shed: %v", err)
	}
	c.Release(tk, false)
}

// TestPredictiveFallsBackWhenCold: without a confident prediction the
// policy must degrade to reactive CoDel, and the backlog must be
// charged with the level's observed mean so unpredicted admissions
// still occupy the wait model.
func TestPredictiveFallsBackWhenCold(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{
		Policy:         Predictive,
		QueueCap:       64,
		Timeout:        10 * time.Millisecond,
		PredictWorkers: 1,
	})
	cold := predict.Class{Op: 11, Size: 2}

	// Cold predictor, empty level: admitted (nothing to predict, no
	// sojourn signal), charge = svcMean = 0.
	tk, err := c.AcquireClass(0, cold)
	if err != nil {
		t.Fatalf("cold arrival shed: %v", err)
	}
	if tk.charge != 0 {
		t.Fatalf("cold charge = %d with no observed mean, want 0", tk.charge)
	}
	c.Release(tk, false) // feeds a (tiny) measured service into svcMean

	// With an observed mean, a still-cold class is charged the mean.
	other := predict.Class{Op: 12, Size: 2}
	mean := c.Stats().PerLevel[0].MeanServiceNS
	if mean <= 0 {
		t.Fatal("release did not train the level's mean service time")
	}
	tk, err = c.AcquireClass(0, other)
	if err != nil {
		t.Fatal(err)
	}
	if tk.charge != mean {
		t.Fatalf("cold-class charge = %d, want level mean %d", tk.charge, mean)
	}
	if got := c.Stats().PerLevel[0].BacklogNS; got != tk.charge {
		t.Fatalf("backlog = %d, want %d", got, tk.charge)
	}
	c.Release(tk, false)

	// With CoDel dropping latched, the low-confidence fallback sheds
	// with ErrSojourn, not ErrPredicted.
	cs := &c.lvl[0].codel
	cs.dropping.Store(true)
	cs.intervalEnd.Store(time.Now().Add(time.Hour).UnixNano())
	if _, err := c.AcquireClass(0, predict.Class{Op: 13, Size: 2}); !errors.Is(err, ErrSojourn) {
		t.Fatalf("cold arrival under latched dropping err = %v, want ErrSojourn", err)
	}
	if got := c.Stats().PerLevel[0].PredictShed; got != 0 {
		t.Fatalf("sojourn fallback counted as a predicted shed (%d)", got)
	}
}

// TestPredictiveSubmitChargesAndReleases covers the future path: the
// backlog charge taken at SubmitClassSince must be released on
// completion, and the body's measured service time must train the
// predictor.
func TestPredictiveSubmitChargesAndReleases(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{
		Policy:         Predictive,
		QueueCap:       64,
		Timeout:        100 * time.Millisecond,
		PredictWorkers: 1,
	})
	cls := predict.Class{Op: 9, Size: 1}
	before := c.Predictor().Updates()
	f, err := c.SubmitClass(0, cls, func(task *sched.Task) any { return "ok" })
	if err != nil {
		t.Fatal(err)
	}
	if v := f.Wait(); v != "ok" {
		t.Fatalf("value = %v", v)
	}
	waitOccupancyZero(t, c)
	if got := c.Stats().PerLevel[0].BacklogNS; got != 0 {
		t.Fatalf("backlog = %d after completion, want 0", got)
	}
	if c.Predictor().Updates() != before+1 {
		t.Fatal("completed body did not feed the predictor")
	}
}

// TestPredictiveShedPathDoesNotAllocate is the CI allocation gate for
// the predictive decision path: both the predicted-miss shed and the
// confident admit must run without touching the allocator (the
// predictor lookup is atomic loads; the charge bookkeeping is atomic
// adds).
func TestPredictiveShedPathDoesNotAllocate(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{
		Policy:         Predictive,
		QueueCap:       64,
		Timeout:        10 * time.Millisecond,
		PredictWorkers: 1,
	})
	cls := predict.Class{Op: 7, Size: 4}
	trainClass(t, c, cls, 8*time.Millisecond)

	// Saturate the backlog so every further arrival is a predicted miss.
	tk, err := c.AcquireClass(0, cls)
	if err != nil {
		t.Fatal(err)
	}

	body := func(task *sched.Task) any { return nil }
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.SubmitClass(0, cls, body); !errors.Is(err, ErrPredicted) {
			t.Fatal("expected predicted shed")
		}
	}); n != 0 {
		t.Fatalf("predicted-shed Submit allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.AcquireClass(0, cls); !errors.Is(err, ErrPredicted) {
			t.Fatal("expected predicted shed")
		}
	}); n != 0 {
		t.Fatalf("predicted-shed Acquire allocates %.1f objects/op, want 0", n)
	}

	// The admit half of the decision (Predict + backlog charge +
	// ticket) must be allocation-free too: release inside the loop so
	// the backlog never saturates. Feeding the measured service back on
	// Release is part of the path and must also stay allocation-free.
	c.Release(tk, false)
	if n := testing.AllocsPerRun(200, func() {
		tk, err := c.AcquireClass(0, cls)
		if err != nil {
			t.Fatal("unexpected shed during admit measurement")
		}
		c.Release(tk, false)
	}); n != 0 {
		t.Fatalf("predictive Acquire/Release allocates %.1f objects/op, want 0", n)
	}
	if got := c.Stats().Total; got != 0 {
		t.Fatalf("occupancy after measurement = %d, want 0", got)
	}
}

func TestPredictiveStatsAndMetrics(t *testing.T) {
	rt := newRT(t, 1, 1)
	c := newCtl(t, rt, Config{
		Policy:   Predictive,
		QueueCap: 4,
		Timeout:  10 * time.Millisecond,
	})
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)

	cls := predict.Class{Op: 7, Size: 4}
	trainClass(t, c, cls, 8*time.Millisecond)
	tk, err := c.AcquireClass(0, cls)
	if err != nil {
		t.Fatal(err)
	}
	c.AcquireClass(0, cls) // predicted shed
	out := reg.String()
	for _, want := range []string{
		`icilk_admission_predicted_shed_total{level="0"}`,
		`icilk_admission_mean_service_seconds{level="0"}`,
		`icilk_admission_predicted_backlog_seconds{level="0"}`,
		"icilk_predict_misses_total",
		"icilk_predict_predictions_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
	s := c.Stats()
	if s.Predict == nil {
		t.Fatal("Stats().Predict missing on a Predictive controller")
	}
	if s.Predict.Updates == 0 || s.Predict.Predictions == 0 {
		t.Fatalf("predictor snapshot empty: %+v", s.Predict)
	}
	c.Release(tk, false)
}

func TestParsePolicyPredictive(t *testing.T) {
	p, err := ParsePolicy("predictive")
	if err != nil || p != Predictive {
		t.Fatalf("ParsePolicy(predictive) = %v, %v", p, err)
	}
	if Predictive.String() != "predictive" {
		t.Fatalf("String() = %q", Predictive.String())
	}
}
