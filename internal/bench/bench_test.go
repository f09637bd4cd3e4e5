package bench

import (
	"testing"
	"time"

	"icilk"
)

// Short smoke runs of each harness path: the figure benchmarks build on
// these, so they must produce sane measurements for every scheduler.

func shortMemcachedOpt() MemcachedOptions {
	return MemcachedOptions{
		Connections: 8, RPS: 400, Duration: 300 * time.Millisecond,
		Warmup: 100 * time.Millisecond,
	}
}

func TestRunMemcachedAllSchedulers(t *testing.T) {
	pt, err := RunMemcachedPthread(shortMemcachedOpt())
	if err != nil {
		t.Fatal(err)
	}
	if pt.Completed == 0 || pt.Errors != 0 {
		t.Fatalf("pthread run: %+v", pt)
	}
	for _, kind := range []icilk.Scheduler{icilk.Prompt, icilk.Adaptive, icilk.AdaptiveAging, icilk.AdaptiveGreedy} {
		r, err := RunMemcachedICilk(kind, DefaultSweep()[0], shortMemcachedOpt())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if r.Completed == 0 || r.Errors != 0 {
			t.Fatalf("%v run: completed=%d errors=%d", kind, r.Completed, r.Errors)
		}
		if r.Latency.Count() == 0 {
			t.Fatalf("%v: no latency samples", kind)
		}
		if len(r.AvgNonEmptyDeques) != 2 {
			t.Fatalf("%v: deque gauge missing", kind)
		}
	}
}

func TestBestMemcachedPicksLowestP99(t *testing.T) {
	spec := Spec{Name: "adaptive", Kind: icilk.Adaptive, Sweep: QuickSweep()}
	best, all, err := BestMemcached(spec, shortMemcachedOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(QuickSweep()) {
		t.Fatalf("swept %d of %d", len(all), len(QuickSweep()))
	}
	for _, r := range all {
		if r.Latency.Percentile(99) < best.Latency.Percentile(99) {
			t.Fatal("best is not the lowest p99")
		}
	}
}

func TestRunEmailAndJob(t *testing.T) {
	opt := ServerOptions{RPS: 200, Duration: 300 * time.Millisecond, Warmup: 100 * time.Millisecond}
	e, err := RunEmail(icilk.Prompt, icilk.AdaptiveParams{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if e.Completed == 0 {
		t.Fatal("email run sent nothing")
	}
	for _, op := range []string{"send", "sort", "print", "comp"} {
		if e.PerOp.Class(op).Count() == 0 {
			t.Fatalf("no %s samples", op)
		}
	}
	jopt := ServerOptions{RPS: 30, Duration: 300 * time.Millisecond, Warmup: 100 * time.Millisecond}
	j, err := RunJob(icilk.Adaptive, DefaultSweep()[0], jopt)
	if err != nil {
		t.Fatal(err)
	}
	if j.Completed == 0 {
		t.Fatal("job run sent nothing")
	}
}

func TestRunJobCfgAblationKnob(t *testing.T) {
	r, err := RunJobCfg(icilk.Config{Workers: 2, Scheduler: icilk.Prompt, DisableMuggingQueue: true},
		ServerOptions{RPS: 20, Duration: 250 * time.Millisecond, Warmup: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("ablation run sent nothing")
	}
}

func TestBestServerUsesP95P99Average(t *testing.T) {
	spec := Spec{Name: "adaptive", Kind: icilk.Adaptive, Sweep: QuickSweep()}
	opt := ServerOptions{RPS: 100, Duration: 250 * time.Millisecond, Warmup: 50 * time.Millisecond}
	best, all, err := BestServer(spec, opt, RunEmail)
	if err != nil {
		t.Fatal(err)
	}
	score := func(r *Run) time.Duration {
		return (r.Latency.Percentile(95) + r.Latency.Percentile(99)) / 2
	}
	for _, r := range all {
		if score(r) < score(best) {
			t.Fatal("best is not the lowest (p95+p99)/2")
		}
	}
}
