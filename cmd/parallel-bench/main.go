// Command parallel-bench measures the data-parallel layer under the
// paper's mixed-workload scenario: an open-loop stream of small
// interactive requests at the highest priority level, first alone and
// then while a background analytics job — a large icilk.Reduce at the
// lowest level — keeps every worker saturated. The promptness claim
// is that interactive p99 stays within a bound (-bound, default 10ms)
// even with the analytics running, because the scheduler preempts the
// background loop at every chunk boundary.
//
// Results append to a JSON trajectory file, one entry per invocation:
//
//	go run ./cmd/parallel-bench -label "my change" -o BENCH_parallel.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"icilk"
	"icilk/internal/workload"
)

// StreamResult is the interactive stream's latency digest for one
// phase (baseline or mixed).
type StreamResult struct {
	Sent  int64   `json:"sent"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
	// Background analytics progress during the phase (zero in the
	// baseline phase): completed full passes over the dataset and the
	// element throughput they imply.
	BgPasses      int64   `json:"bg_passes,omitempty"`
	BgElemsPerSec float64 `json:"bg_elems_per_sec,omitempty"`
}

// Entry is one parallel-bench invocation.
type Entry struct {
	Label    string       `json:"label"`
	Date     string       `json:"date"`
	Workers  int          `json:"workers"`
	RateRPS  float64      `json:"rate_rps"`
	Duration string       `json:"duration"`
	BoundMS  float64      `json:"bound_ms"`
	Baseline StreamResult `json:"baseline"`
	Mixed    StreamResult `json:"mixed"`
	// WithinBound is the promptness verdict: mixed-phase interactive
	// p99 at or under the bound.
	WithinBound bool `json:"within_bound"`
}

// File is the committed trajectory: newest entry last. Earlier entries
// are carried through verbatim (some record a since-removed
// Reduce-vs-ReduceShared ablation, 1.003×).
type File struct {
	Comment string            `json:"_comment"`
	Entries []json.RawMessage `json:"entries"`
}

const fileComment = "Mixed batch/interactive data-parallel trajectory; append entries with: go run ./cmd/parallel-bench -label <change> -o BENCH_parallel.json"

// Interactive request: a parallel scan-and-sum over a shared read-only
// table, shaped like the memcached cachedump walk — tens of
// microseconds of real data-parallel work per request.
const (
	interTableSize = 1 << 15
	interGrain     = 1 << 12
)

// Background analytics: one pass reduces this many elements. Leaf cost
// is skewed (every skewStride-th block is skewFactor× heavier), so the
// pass has stragglers for the scheduler to balance.
const (
	bgTableSize = 1 << 21
	bgGrain     = 1 << 13
	skewStride  = 64
	skewFactor  = 8
)

func buildTable(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i*2654435761) % 1009
	}
	return xs
}

// interScan is one interactive request's body.
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

// bgLeaf burns per-element work with a skew.
func bgLeaf(table []int64, i int) int64 {
	reps := 1
	if (i/bgGrain)%skewStride == 0 {
		reps = skewFactor
	}
	v := table[i]
	for r := 0; r < reps; r++ {
		v = v*6364136223846793005 + 1442695040888963407
	}
	return v & 0xffff
}

// bgPass is one full analytics pass.
func bgPass(t *icilk.Task, table []int64) int64 {
	return icilk.Reduce(t, 0, bgTableSize, bgGrain, 0,
		func(i int) int64 { return bgLeaf(table, i) },
		func(a, b int64) int64 { return a + b })
}

// runStream drives the interactive open-loop stream, optionally with
// the background analytics loop saturating the low level.
func runStream(workers int, rate float64, dur, warmup time.Duration, seed uint64, background bool) (StreamResult, error) {
	rt, err := icilk.New(icilk.Config{Workers: workers, Levels: 2})
	if err != nil {
		return StreamResult{}, err
	}
	defer rt.Close()
	interTable := buildTable(interTableSize)

	var stop atomic.Bool
	var passes atomic.Int64
	bgDone := make(chan struct{})
	if background {
		bgTable := buildTable(bgTableSize)
		go func() {
			defer close(bgDone)
			for !stop.Load() {
				rt.Submit(1, func(t *icilk.Task) any {
					return bgPass(t, bgTable)
				}).Wait()
				passes.Add(1)
			}
		}()
	} else {
		close(bgDone)
	}

	res := workload.RunOpenLoop(workload.OpenLoopConfig{
		RPS:      rate,
		Duration: warmup + dur,
		Warmup:   warmup,
		Mix:      []float64{1},
		Seed:     seed,
	}, func(class, user int, seq int64) *icilk.Future {
		return rt.Submit(0, func(t *icilk.Task) any { return interScan(t, interTable) })
	})
	stop.Store(true)
	<-bgDone

	sum := res.All.Summarize()
	out := StreamResult{
		Sent:  res.Sent,
		P50ms: float64(sum.Median.Microseconds()) / 1000,
		P99ms: float64(sum.P99.Microseconds()) / 1000,
		MaxMS: float64(sum.Max.Microseconds()) / 1000,
	}
	if background {
		out.BgPasses = passes.Load()
		if secs := res.Elapsed.Seconds(); secs > 0 {
			out.BgElemsPerSec = float64(passes.Load()) * bgTableSize / secs
		}
	}
	return out, nil
}

func main() {
	label := flag.String("label", "", "entry label (e.g. the change being measured); required")
	out := flag.String("o", "", "JSON file to append the entry to (created if missing); stdout if empty")
	rate := flag.Float64("rate", 400, "interactive request rate (RPS)")
	dur := flag.Duration("dur", 2*time.Second, "measurement duration per phase")
	warmup := flag.Duration("warmup", 300*time.Millisecond, "per-phase warmup (load applied, not measured)")
	bound := flag.Duration("bound", 10*time.Millisecond, "interactive p99 promptness bound under background load")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "scheduler workers")
	seed := flag.Uint64("seed", 42, "workload seed")
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "parallel-bench: -label is required (what is being measured?)")
		os.Exit(2)
	}

	entry := Entry{
		Label:    *label,
		Date:     time.Now().UTC().Format("2006-01-02"),
		Workers:  *workers,
		RateRPS:  *rate,
		Duration: dur.String(),
		BoundMS:  float64(bound.Microseconds()) / 1000,
	}

	fmt.Fprintf(os.Stderr, "baseline: %.0f rps interactive, no background ...\n", *rate)
	base, err := runStream(*workers, *rate, *dur, *warmup, *seed, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parallel-bench: %v\n", err)
		os.Exit(1)
	}
	entry.Baseline = base
	fmt.Fprintf(os.Stderr, "  sent %d  p50 %.3fms  p99 %.3fms  max %.3fms\n",
		base.Sent, base.P50ms, base.P99ms, base.MaxMS)

	fmt.Fprintf(os.Stderr, "mixed: same stream + background analytics at level 1 ...\n")
	mixed, err := runStream(*workers, *rate, *dur, *warmup, *seed, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parallel-bench: %v\n", err)
		os.Exit(1)
	}
	entry.Mixed = mixed
	entry.WithinBound = mixed.P99ms <= entry.BoundMS
	fmt.Fprintf(os.Stderr, "  sent %d  p50 %.3fms  p99 %.3fms  max %.3fms  bg %d passes (%.2fM elems/s)\n",
		mixed.Sent, mixed.P50ms, mixed.P99ms, mixed.MaxMS, mixed.BgPasses, mixed.BgElemsPerSec/1e6)
	verdict := "WITHIN"
	if !entry.WithinBound {
		verdict = "EXCEEDS"
	}
	fmt.Fprintf(os.Stderr, "  promptness: interactive p99 %.3fms %s %.1fms bound under saturation\n",
		mixed.P99ms, verdict, entry.BoundMS)

	var f File
	if *out != "" {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &f); err != nil {
				fmt.Fprintf(os.Stderr, "parallel-bench: %s exists but is not valid JSON: %v\n", *out, err)
				os.Exit(1)
			}
		}
	}
	f.Comment = fileComment
	raw, err := json.Marshal(entry)
	if err != nil {
		panic(err)
	}
	f.Entries = append(f.Entries, raw)
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "parallel-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "appended %q to %s\n", *label, *out)
}
