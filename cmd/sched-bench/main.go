// Command sched-bench measures the scheduler hot-path
// micro-benchmarks (spawn→sync, same-level future create→get,
// external submit→wait) and records ns/op, B/op, and allocs/op as an
// entry in a JSON trajectory file (BENCH_sched.json at the repo
// root). Each PR touching the hot paths appends an entry, so the
// constant-factor history of the scheduler is version-controlled
// alongside the code:
//
//	go run ./cmd/sched-bench -label "my change" -o BENCH_sched.json
//
// Without -o it prints the entry to stdout.
//
// With -workers it instead runs the multi-core scaling benchmark: a
// steal-heavy workload measured once per (workers × shards)
// configuration, with GOMAXPROCS pinned to the worker count, emitting
// one JSON row per configuration (ns per submission plus the steal,
// sample-miss, and sweep counters). The committed trajectory is
// reproducible from one command:
//
//	go run ./cmd/sched-bench -label "my change" -workers 1,2,4 -shards 1,4 -o BENCH_scaling.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"icilk"
)

// Entry is one measurement of the three hot-path benchmarks.
type Entry struct {
	Label     string           `json:"label"`
	Date      string           `json:"date"`
	GoVersion string           `json:"go,omitempty"`
	Benchtime string           `json:"benchtime"`
	Results   map[string]Bench `json:"results"`
}

// Bench is one benchmark's stats.
type Bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// File is the committed trajectory: newest entry last.
type File struct {
	Comment string  `json:"_comment"`
	Entries []Entry `json:"entries"`
}

const fileComment = "Scheduler hot-path benchmark trajectory; append entries with: go run ./cmd/sched-bench -label <change> -o BENCH_sched.json"

func run(b *testing.B, body func(rt *icilk.Runtime, b *testing.B)) {
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	body(rt, b)
}

// The three bodies mirror BenchmarkSpawnSync / BenchmarkFutureCreateGet
// / BenchmarkSubmitWait in bench_test.go (kept in sync by hand; the
// bench harness cannot import a _test package).
var benches = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"SpawnSync", func(b *testing.B) {
		run(b, func(rt *icilk.Runtime, b *testing.B) {
			rt.Run(func(t *icilk.Task) any {
				for i := 0; i < b.N; i++ {
					t.Spawn(func(*icilk.Task) {})
					t.Sync()
				}
				return nil
			})
		})
	}},
	{"FutureCreateGet", func(b *testing.B) {
		run(b, func(rt *icilk.Runtime, b *testing.B) {
			rt.Run(func(t *icilk.Task) any {
				for i := 0; i < b.N; i++ {
					f := t.FutCreate(0, func(*icilk.Task) any { return i })
					f.Get(t)
				}
				return nil
			})
		})
	}},
	{"SubmitWait", func(b *testing.B) {
		run(b, func(rt *icilk.Runtime, b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt.Submit(0, func(*icilk.Task) any { return nil }).Wait()
			}
		})
	}},
}

// ScalingRow is one (workers × shards) configuration's measurement in
// the multi-core scaling benchmark. Shards records the *effective*
// shard count (-shards values round up to a power of two). NsPerOp is
// nanoseconds per external submission of a small spawn tree, the
// steal-heavy unit the pool sharding targets.
type ScalingRow struct {
	Label      string  `json:"label"`
	Date       string  `json:"date"`
	GoVersion  string  `json:"go,omitempty"`
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Shards     int     `json:"shards"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Scheduler counters over the whole measurement, for diagnosing a
	// scaling anomaly from the committed file alone.
	Steals       int64 `json:"steals"`
	Mugs         int64 `json:"mugs"`
	FailedSteals int64 `json:"failed_steals"`
	SampleMisses int64 `json:"sample_misses"`
	Sweeps       int64 `json:"sweeps"`
}

// ScalingFile is the committed scaling trajectory: newest rows last.
type ScalingFile struct {
	Comment string       `json:"_comment"`
	Rows    []ScalingRow `json:"rows"`
}

const scalingComment = "Multi-core scaling trajectory (sharded pool vs centralized); append rows with: go run ./cmd/sched-bench -label <change> -workers 1,2,4 -shards 1,4 -o BENCH_scaling.json"

// scalingOp is one benchmark op: a batch of external submissions of
// tiny spawn trees. Every submission lands in the centralized pool and
// is extracted by a thief, and every spawn is steal bait while its
// sibling batch keeps the other workers hungry — the workload is
// deliberately pool-bound, the paths sharding targets, rather than
// worker-local-deque-bound.
const scalingBatch = 64

func runScalingConfig(label string, workers, shards int) ScalingRow {
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	rt, err := icilk.New(icilk.Config{Workers: workers, PoolShards: shards, Levels: 2})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sched-bench: workers=%d shards=%d: %v\n", workers, shards, err)
		os.Exit(1)
	}
	defer rt.Close()
	r := testing.Benchmark(func(b *testing.B) {
		batch := make([]*icilk.Future, scalingBatch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range batch {
				batch[k] = rt.Submit(k%2, func(t *icilk.Task) any {
					t.Spawn(func(*icilk.Task) {})
					t.Spawn(func(*icilk.Task) {})
					t.Sync()
					return nil
				})
			}
			for _, f := range batch {
				f.Wait()
			}
		}
	})
	snap := rt.Snapshot()
	effShards, misses, sweeps := rt.ShardStats()
	row := ScalingRow{
		Label:        label,
		Date:         time.Now().UTC().Format("2006-01-02"),
		GoVersion:    runtime.Version(),
		Cores:        runtime.NumCPU(),
		GOMAXPROCS:   workers,
		Workers:      workers,
		Shards:       effShards,
		NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N*scalingBatch),
		Steals:       snap.Total.Steals,
		Mugs:         snap.Total.Muggings,
		FailedSteals: snap.Total.FailedSteals,
		SampleMisses: misses,
		Sweeps:       sweeps,
	}
	fmt.Fprintf(os.Stderr, "workers=%d shards=%-2d %8.0f ns/submit  steals=%-7d failed=%-7d misses=%-6d sweeps=%d\n",
		workers, effShards, row.NsPerOp, row.Steals, row.FailedSteals, row.SampleMisses, row.Sweeps)
	return row
}

// parseIntList parses a comma-separated flag value like "1,2,4".
func parseIntList(flagName, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sched-bench: -%s: bad value %q: %v\n", flagName, part, err)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func runScaling(label, workersList, shardsList string, reps int, out string) {
	workers := parseIntList("workers", workersList)
	shards := []int{1, 4} // the centralized default, then the sharded opt-in
	if shardsList != "" {
		shards = parseIntList("shards", shardsList)
	}
	// Run the whole configuration grid reps times, interleaved (a full
	// pass over every configuration, then the next pass), and keep each
	// configuration's minimum-ns/op row. Interleaving spreads slow OS /
	// GC phases across configurations instead of letting them bias
	// whichever config ran during one, and the minimum is the standard
	// low-noise estimator on shared or timesliced hosts: external load
	// only ever adds time, so the fastest pass is the closest
	// observation of each configuration's intrinsic cost.
	type key struct{ w, s int }
	var order []key
	for _, w := range workers {
		for _, s := range shards {
			order = append(order, key{w, s})
		}
	}
	samples := make(map[key][]ScalingRow)
	for r := 0; r < reps; r++ {
		// Rotate the starting configuration each pass so no
		// configuration always runs in the same slot (first-in-pass and
		// last-in-pass positions see systematically different cache and
		// allocator state).
		for idx := range order {
			k := order[(idx+r)%len(order)]
			samples[k] = append(samples[k], runScalingConfig(label, k.w, k.s))
		}
	}
	var rows []ScalingRow
	for _, k := range order {
		rs := samples[k]
		sort.Slice(rs, func(a, b int) bool { return rs[a].NsPerOp < rs[b].NsPerOp })
		rows = append(rows, rs[0])
	}

	var f ScalingFile
	if out != "" {
		if data, err := os.ReadFile(out); err == nil {
			if err := json.Unmarshal(data, &f); err != nil {
				fmt.Fprintf(os.Stderr, "sched-bench: %s exists but is not valid JSON: %v\n", out, err)
				os.Exit(1)
			}
		}
	}
	f.Comment = scalingComment
	f.Rows = append(f.Rows, rows...)
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sched-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "appended %d rows (%q) to %s\n", len(rows), label, out)
}

func main() {
	testing.Init() // registers -test.benchtime, which testing.Benchmark honors
	label := flag.String("label", "", "entry label (e.g. the change being measured); required")
	out := flag.String("o", "", "JSON file to append the entry to (created if missing); stdout if empty")
	benchtime := flag.Duration("benchtime", 2*time.Second, "per-benchmark measurement time")
	workersList := flag.String("workers", "", "comma-separated worker counts; enables the multi-core scaling benchmark")
	shardsList := flag.String("shards", "", "comma-separated PoolShards values for the scaling benchmark (default \"1,4\")")
	reps := flag.Int("reps", 3, "interleaved passes over the scaling grid; each configuration's fastest row is kept")
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "sched-bench: -label is required (what is being measured?)")
		os.Exit(2)
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		panic(err)
	}
	if *workersList != "" {
		runScaling(*label, *workersList, *shardsList, *reps, *out)
		return
	}

	entry := Entry{
		Label:     *label,
		Date:      time.Now().UTC().Format("2006-01-02"),
		Benchtime: benchtime.String(),
		Results:   make(map[string]Bench),
	}
	for _, bm := range benches {
		r := testing.Benchmark(bm.fn)
		entry.Results[bm.name] = Bench{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fmt.Fprintf(os.Stderr, "%-16s %10.0f ns/op %6d B/op %4d allocs/op (n=%d)\n",
			bm.name, entry.Results[bm.name].NsPerOp, r.AllocedBytesPerOp(), r.AllocsPerOp(), r.N)
	}

	var f File
	if *out != "" {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &f); err != nil {
				fmt.Fprintf(os.Stderr, "sched-bench: %s exists but is not valid JSON: %v\n", *out, err)
				os.Exit(1)
			}
		}
	}
	f.Comment = fileComment
	f.Entries = append(f.Entries, entry)
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
		fmt.Fprintf(os.Stderr, "sched-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "appended %q to %s\n", *label, *out)
}
