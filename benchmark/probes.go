package main

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"icilk"
	"icilk/internal/cluster"
	"icilk/internal/deque"
	"icilk/internal/epoch"
	"icilk/internal/fifoq"
	"icilk/internal/iopool"
	"icilk/internal/jobserver"
	"icilk/internal/memcached"
	"icilk/internal/predict"
	"icilk/internal/prio"
	"icilk/internal/wire"
	"icilk/internal/xrand"
)

// Layer probes: fixed-iteration loops over one layer's public calls,
// on otherwise idle runtimes, after the workload has been torn down.
// They price a layer in isolation so a change in an end-to-end metric
// can be split into "the layer got slower" and "it is used more".

// sink keeps results alive so the compiler cannot drop a probed call.
var sink any

type prober struct {
	smoke bool
	set   func(name string, v float64)
}

// iters caps the iteration count in smoke mode.
func (p *prober) iters(n int) int {
	if p.smoke && n > 1000 {
		return 1000
	}
	return n
}

// nsPerOp runs f(n) three times and returns the fastest run's ns per
// iteration: the minimum is the least disturbed measurement of a
// fixed amount of work.
func (p *prober) nsPerOp(n int, f func(n int)) float64 {
	n = p.iters(n)
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		f(n)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best) / float64(n)
}

// allocsPerOp returns heap allocations and bytes per iteration of f.
func (p *prober) allocsPerOp(n int, f func(n int)) (allocs, bytes float64) {
	n = p.iters(n)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f(n)
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// medianOf collects one sample per iteration and returns the median,
// for probes whose every iteration includes a deliberate pause.
func (p *prober) medianOf(n int, sample func() time.Duration) float64 {
	n = p.iters(n)
	if p.smoke {
		n = 20
	}
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(sample())
	}
	slices.Sort(xs)
	return float64(percentile(xs, 50))
}

var (
	probeMu    sync.Mutex
	probeCache = map[uint64]map[string]float64{}
)

// runProbes measures every probe metric once per process and seed.
func runProbes(set func(string, float64), cfg runConfig) {
	probeMu.Lock()
	defer probeMu.Unlock()
	vals, ok := probeCache[cfg.seed]
	if !ok {
		vals = map[string]float64{}
		p := &prober{smoke: cfg.smoke, set: func(name string, v float64) { vals[name] = v }}
		p.sched()
		p.substrate()
		p.parallel()
		p.iopool()
		p.memcached(cfg.seed)
		p.jobserver()
		p.controlPlane()
		probeCache[cfg.seed] = vals
	}
	for name, v := range vals {
		set(name, v)
	}
}

func (p *prober) sched() {
	rt, err := icilk.New(icilk.Config{Workers: nproc(), IOThreads: nproc(), Levels: 1})
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	nop := func(*icilk.Task) {}
	nopF := func(*icilk.Task) any { return nil }

	spawnSync := func(n int) {
		rt.Run(func(t *icilk.Task) any {
			for i := 0; i < n; i++ {
				t.Spawn(nop)
				t.Sync()
			}
			return nil
		})
	}
	p.set("sched.spawn_sync_ns", p.nsPerOp(50_000, spawnSync))
	a, _ := p.allocsPerOp(50_000, spawnSync)
	p.set("sched.spawn_sync_allocs", a)

	futGet := func(n int) {
		rt.Run(func(t *icilk.Task) any {
			for i := 0; i < n; i++ {
				t.FutCreate(0, nopF).Get(t)
			}
			return nil
		})
	}
	p.set("sched.fut_create_get_ns", p.nsPerOp(40_000, futGet))
	a, _ = p.allocsPerOp(40_000, futGet)
	p.set("sched.fut_create_get_allocs", a)

	submitWait := func(n int) {
		for i := 0; i < n; i++ {
			rt.Submit(0, nopF).Wait()
		}
	}
	p.set("sched.submit_wait_ns", p.nsPerOp(20_000, submitWait))
	a, b := p.allocsPerOp(20_000, submitWait)
	p.set("sched.submit_wait_allocs", a)
	p.set("sched.submit_wait_bytes", b)

	// After a 500 us gap the workers have gone to sleep: this is the
	// cost of waking the runtime for one request.
	p.set("sched.idle_submit_wait_us", p.medianOf(200, func() time.Duration {
		time.Sleep(500 * time.Microsecond)
		t0 := time.Now()
		rt.Submit(0, nopF).Wait()
		return time.Since(t0)
	})/1e3)
}

func (p *prober) substrate() {
	bf := prio.New()
	bf.Set(3)
	p.set("prio.check_ns", p.nsPerOp(5_000_000, func(n int) {
		x := 0
		for i := 0; i < n; i++ {
			if l, ok := bf.HigherThan(5); ok {
				x += l
			}
		}
		sink = x
	}))
	bf = prio.New()
	p.set("prio.set_clear_ns", p.nsPerOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			bf.Set(2)
			bf.Clear(2)
		}
	}))
	// Set on an all-zero field -> a sleeper returns from WaitNonZero.
	p.set("prio.wake_us", p.medianOf(200, func() time.Duration {
		parked := make(chan struct{})
		woke := make(chan time.Time)
		go func() {
			bf.WaitNonZero(func() { close(parked) })
			woke <- time.Now()
		}()
		<-parked
		time.Sleep(200 * time.Microsecond) // from "about to block" to blocked
		t0 := time.Now()
		bf.Set(0)
		d := (<-woke).Sub(t0)
		bf.Clear(0)
		return d
	})/1e3)

	d := deque.New(0, nil)
	p.set("deque.push_pop_ns", p.nsPerOp(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			d.PushBottom(i)
			d.PopBottom()
		}
	}))
	p.set("deque.steal_ns", p.nsPerOp(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			d.PushBottom(i)
			d.StealTop()
		}
	}))

	col := epoch.NewCollector()
	q := fifoq.New[*int](col)
	v := 1
	enqDeq := func(n int) {
		part := col.Register()
		for i := 0; i < n; i++ {
			q.Enqueue(part, &v)
			q.Dequeue(part)
		}
	}
	p.set("fifoq.enq_deq_ns", p.nsPerOp(1_000_000, enqDeq))
	p.set("fifoq.enq_deq_2p_ns", p.nsPerOp(1_000_000, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() { defer wg.Done(); enqDeq(n / 2) }()
		}
		wg.Wait()
	}))
	part := col.Register()
	p.set("epoch.pin_unpin_ns", p.nsPerOp(5_000_000, func(n int) {
		for i := 0; i < n; i++ {
			part.Pin()
			part.Unpin()
		}
	}))
}

func (p *prober) parallel() {
	rt, err := icilk.New(icilk.Config{Workers: nproc(), IOThreads: nproc(), Levels: 1})
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	table := buildTable(bgTableSize)
	passes := 4
	if p.smoke {
		passes = 1
	}
	ns := p.nsPerOp(passes, func(n int) {
		for i := 0; i < n; i++ {
			sink = rt.Run(func(t *icilk.Task) any { return bgPass(t, table) })
		}
	})
	p.set("parallel.reduce_Melems_s", bgTableSize/ns*1e3)

	xs := make([]int64, 1<<20)
	p.set("parallel.for_ns_per_iter", p.nsPerOp(passes, func(n int) {
		for i := 0; i < n; i++ {
			rt.Run(func(t *icilk.Task) any {
				icilk.For(t, 0, len(xs), 0, func(j int) { xs[j]++ })
				return nil
			})
		}
	})/float64(len(xs)))
	ns = p.nsPerOp(passes, func(n int) {
		for i := 0; i < n; i++ {
			rt.Run(func(t *icilk.Task) any {
				out, total := icilk.Scan(t, xs, 0, 0, func(a, b int64) int64 { return a + b })
				sink = out
				return total
			})
		}
	})
	p.set("parallel.scan_Melems_s", float64(len(xs))/ns*1e3)

	// AutoGrain sizes leaves from the spawn+sync cost the runtime
	// calibrates on first use; that calibrated cost is what is
	// observable from outside.
	p.set("parallel.autograin", float64(rt.Run(func(t *icilk.Task) any {
		icilk.For(t, 0, 1<<16, icilk.AutoGrain, func(j int) { xs[j]++ })
		return t.Runtime().SpawnCostNS()
	}).(int64)))
}

func (p *prober) iopool() {
	pool := iopool.New(nproc())
	defer pool.Close()
	nop := func() {}
	const burst = 1024 // stays inside the handoff channel, so no spills
	n := p.iters(200 * burst)
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		var busy time.Duration
		for done := 0; done < n; done += burst {
			t0 := time.Now()
			for i := 0; i < burst; i++ {
				pool.Submit(nop)
			}
			busy += time.Since(t0)
			for pool.Depth() > 0 {
				runtime.Gosched()
			}
		}
		if busy < best {
			best = busy
		}
	}
	p.set("iopool.submit_ns", float64(best)/float64((n+burst-1)/burst*burst))
}

// memcached replays request bytes generated from this run's seed
// through the parser and executor, with no connection underneath.
func (p *prober) memcached(seed uint64) {
	w := newMC("probe", mcConfig{keys: 1 << 12, valueLen: 64, zipf: 1.1, setFrac: 0.1, mgetFrac: 0.1}, phaseRates{}, 0)
	ph := &phase{name: "probe", dur: 100 * time.Millisecond, rate: 40_000}
	w.generate(seed, []*phase{ph}, newScheduleHash())
	store := memcached.NewStore(memcached.StoreConfig{})
	for k := range w.keyBytes {
		store.SetB(memcached.ModeSet, w.keyBytes[k], w.valueOf(uint32(k), 0), 0, 0, 0)
	}
	type request struct{ line, data []byte }
	var byKind [3][]request
	var all [][]byte
	for i := range ph.ops {
		o := &ph.ops[i]
		var ks *[mgetKeys]uint32
		if o.kind == kMget {
			ks = &w.mgets[o.ver]
		}
		raw := w.appendRequest(nil, o, ks)
		var r request
		if o.kind == kSet {
			head := len(raw) - w.cfg.valueLen - 4 // line CRLF data CRLF
			r.line, r.data = raw[:head], raw[head+2:len(raw)-2]
		} else {
			r.line = raw[:len(raw)-2]
		}
		byKind[o.kind] = append(byKind[o.kind], r)
		all = append(all, r.line)
	}

	var fields [][]byte
	p.set("wire.fields_ns", p.nsPerOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			fields = wire.Fields(fields[:0], all[i%len(all)])
		}
	}))
	lens := make([][]byte, 0, len(byKind[kSet]))
	for _, r := range byKind[kSet] {
		f := wire.Fields(nil, r.line)
		lens = append(lens, f[len(f)-1], f[2]) // the byte count and the flags (version)
	}
	p.set("wire.parse_uint_ns", p.nsPerOp(2_000_000, func(n int) {
		var x uint64
		for i := 0; i < n; i++ {
			v, _ := wire.ParseUint(lens[i%len(lens)], 32)
			x += v
		}
		sink = x
	}))

	var req memcached.RequestB
	var reply []byte
	replay := func(reqs []request) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				r := &reqs[i%len(reqs)]
				if need, _ := memcached.ParseCommandB(r.line, &req); need >= 0 {
					req.Data = r.data
				}
				reply, _ = memcached.ExecuteAppend(store, &req, reply[:0])
			}
		}
	}
	p.set("memcached.parse_exec_get_ns", p.nsPerOp(500_000, replay(byKind[kGet])))
	p.set("memcached.parse_exec_set_ns", p.nsPerOp(300_000, replay(byKind[kSet])))
	p.set("memcached.parse_exec_mget16_ns", p.nsPerOp(50_000, replay(byKind[kMget])))
	a, _ := p.allocsPerOp(200_000, replay(byKind[kGet]))
	p.set("memcached.parse_exec_allocs", a)

	p.set("memcached.store_get_ns", p.nsPerOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			v, _, _, _ := store.GetView(w.keyBytes[i&(w.cfg.keys-1)])
			sink = v
		}
	}))
	val := w.valueOf(0, 1)
	p.set("memcached.store_set_ns", p.nsPerOp(500_000, func(n int) {
		for i := 0; i < n; i++ {
			store.SetB(memcached.ModeSet, w.keyBytes[i&(w.cfg.keys-1)], val, 1, 0, 0)
		}
	}))
}

func (p *prober) jobserver() {
	rt, err := icilk.New(icilk.Config{Workers: nproc(), IOThreads: nproc(), Levels: jobserver.Levels})
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	srv, err := jobserver.New(rt, jobConfig)
	if err != nil {
		panic(err)
	}
	for class, name := range jobserver.OpNames {
		seq := int64(0)
		p.set("jobserver."+name+"_us", p.medianOf(300, func() time.Duration {
			t0 := time.Now()
			sink = srv.Do(class, seq%goldenSeqs).Wait()
			seq++
			return time.Since(t0)
		})/1e3)
	}
}

// controlPlane covers the layers no workload drives, so a later
// deletion or rewrite has a before-row.
func (p *prober) controlPlane() {
	rt, err := icilk.New(icilk.Config{Workers: nproc(), IOThreads: nproc(), Admission: &icilk.AdmissionConfig{}})
	if err != nil {
		panic(err)
	}
	adm := rt.Admission()
	p.set("admission.acquire_release_ns", p.nsPerOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			tk, err := adm.Acquire(0)
			if err != nil {
				panic(err)
			}
			adm.Release(tk, false)
		}
	}))
	rt.Close()

	pr, err := predict.New(predict.Config{})
	if err != nil {
		panic(err)
	}
	classes := []predict.Class{{Op: 1, Size: 6}, {Op: 2, Size: 12}, {Op: 3, Size: 6}}
	p.set("predict.update_ns", p.nsPerOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			pr.Update(classes[i%3], time.Duration(20+i%3*15)*time.Microsecond)
		}
	}))
	p.set("predict.predict_ns", p.nsPerOp(2_000_000, func(n int) {
		var x time.Duration
		for i := 0; i < n; i++ {
			est, _, _ := pr.Predict(classes[i%3])
			x += est
		}
		sink = x
	}))

	cl, err := cluster.New(cluster.Config{Shards: 4, Runtime: icilk.Config{Workers: 1, IOThreads: 1}})
	if err != nil {
		panic(err)
	}
	ring := cl.Ring()
	keys := make([][]byte, 1024)
	r := xrand.New(1)
	for i := range keys {
		keys[i] = []byte("key:" + string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26))) + string(rune('a'+i%26)))
	}
	p.set("cluster.ring_owner_ns", p.nsPerOp(2_000_000, func(n int) {
		x := 0
		for i := 0; i < n; i++ {
			x += ring.Owner(keys[i&1023])
		}
		sink = x
	}))
	cl.Close()
}
