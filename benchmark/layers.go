package main

import (
	"slices"
	"sync/atomic"

	"icilk/internal/netpoll"
)

func pollCtls() int64 { return netpoll.PollStats.EpollCtls() }

// startTrace arms whatever interposition the workload has for the
// traced phase, which starts now.
func startTrace(w workload, rec *phaseRec) *traceDigest {
	switch x := w.(type) {
	case *mcWorkload:
		x.tr.start(rec.start)
	case *mixedWorkload:
		rec.run = make([]atomic.Int64, len(rec.done))
		rec.ret = make([]atomic.Int64, len(rec.done))
	}
	return &traceDigest{samples: map[string][]int64{}}
}

func stopTrace(w workload, rec *phaseRec, d *traceDigest) {
	clientSpans(d, rec)
	if mc, ok := w.(*mcWorkload); ok {
		mc.tr.stop()
		mc.tr.digest(d)
	}
}

// layerMetrics fills the per-layer metrics a workload run yields:
// counter deltas over the untraced nominal phase per completed
// request, and span medians from the traced phase. The layer probes
// (probes.go) supply the rest.
func layerMetrics(res *result, w workload, recs map[string]*phaseRec, snaps map[string][2]procCounters,
	sat satResult, d *traceDigest, ctlBefore int64) {
	set := res.set
	nominal, traced := recs["nominal"], recs["traced"]
	a, b := snaps["nominal"][0].counters, snaps["nominal"][1].counters
	ops := w.opsDone(nominal)
	perOp := func(x, y int64) float64 { return ratio(float64(y-x), ops) }

	set("sched.steals_per_op", perOp(a.steals, b.steals))
	set("sched.failed_steals_per_op", perOp(a.failedSteals, b.failedSteals))
	set("sched.steal_success_frac", ratio(float64(b.steals-a.steals), float64(b.steals-a.steals+b.failedSteals-a.failedSteals)))
	set("sched.mugs_per_op", perOp(a.mugs, b.mugs))
	set("sched.suspends_per_op", perOp(a.suspends, b.suspends))
	set("sched.resumes_per_op", perOp(a.resumes, b.resumes))
	set("sched.sleeps_per_op", perOp(a.sleeps, b.sleeps))
	set("sched.bitfield_checks_per_op", perOp(a.checks, b.checks))
	set("sched.sample_misses_per_op", perOp(a.sampleMisses, b.sampleMisses))
	set("sched.sweeps_per_op", perOp(a.sweeps, b.sweeps))
	clock := float64(b.work - a.work + b.overhead - a.overhead + b.waste - a.waste)
	set("sched.waste_frac", ratio(float64(b.waste-a.waste), clock))
	set("sched.overhead_frac", ratio(float64(b.overhead-a.overhead), clock))

	set("iopool.fns_per_batch", ratio(float64(b.ioBatchedFns-a.ioBatchedFns), float64(b.ioBatches-a.ioBatches)))
	set("iopool.spills_per_op", perOp(a.ioSpills, b.ioSpills))
	set("iopool.high_water", float64(b.ioHWM))

	set("netpoll.epoll_waits_per_op", perOp(a.epollWaits, b.epollWaits))
	set("netpoll.events_per_wait", ratio(float64(b.events-a.events), float64(b.epollWaits-a.epollWaits)))
	set("netpoll.fns_per_batch", ratio(float64(b.pollFns-a.pollFns), float64(b.pollBatches-a.pollBatches)))
	conns := 0.0
	if mc, ok := w.(*mcWorkload); ok {
		conns = float64(mc.conns + 1)
	}
	// From just before set-up to the end of nominal: registration,
	// every interest toggle since, no deregistration yet.
	set("netpoll.epoll_ctl_per_conn", ratio(float64(b.epollCtls-ctlBefore), conns))

	set("netreal.sys_reads_per_op", perOp(a.sysReads, b.sysReads))
	set("netreal.sys_writes_per_op", perOp(a.sysWrites, b.sysWrites))
	set("netreal.syscalls_per_op", perOp(a.sysReads+a.sysWrites+a.epollWaits+a.epollCtls, b.sysReads+b.sysWrites+b.epollWaits+b.epollCtls))
	set("netreal.bytes_per_read", ratio(float64(b.readBytes-a.readBytes), float64(b.sysReads-a.sysReads)))
	set("netreal.pool_hit_frac", ratio(float64(b.poolHits-a.poolHits), float64(b.poolHits-a.poolHits+b.poolMisses-a.poolMisses)))
	// Pauses count read-side backpressure (the connection's buffered
	// bytes passed its soft cap), not parked writes.
	set("netreal.pauses_per_kop", 1000*perOp(a.paus, b.paus))

	gets := float64(b.getHits - a.getHits + b.getMisses - a.getMisses)
	set("memcached.hit_frac", ratio(float64(b.getHits-a.getHits), gets))
	set("memcached.evictions_per_op", perOp(a.evictions, b.evictions))

	late := lateness(nominal)
	set("gen.late_p50_us", late.p50)
	set("gen.late_p99_us", late.p99)
	set("client.send_to_done_p50_us", sendToDoneP50(nominal)/1e3)
	set("proc.bytes_per_op", ratio(float64(b.allocBytes-a.allocBytes), ops))
	set("proc.gc_cycles", float64(b.gcCycles-a.gcCycles))
	set("proc.gc_pause_ms", float64(b.gcPause-a.gcPause)/1e6)
	set("proc.cpu_us_per_op_sat", ratio(float64(sat.cpu.Microseconds()), float64(sat.completed)))

	p50 := func(rec *phaseRec) float64 {
		_, lat := latencies(rec, w.base().primary)
		slices.Sort(lat)
		return float64(percentile(lat, 50))
	}
	set("trace.overhead_frac", ratio(p50(traced)-p50(nominal), p50(nominal)))

	// Spans a workload cannot produce stay absent from the trace and
	// read 0 here: that absence is the attribution.
	set("sched.submit_to_run_p50_us", d.p50("sched.submit_to_run")/1e3)
	set("sched.submit_to_run_p99_us", d.p99("sched.submit_to_run")/1e3)
	set("sched.io_resume_us", d.p50("sched.io_resume")/1e3)
	set("iopool.submit_batch_ns", d.p50("iopool.submit_batch"))
	set("netreal.try_read_ns", d.p50("netreal.try_read"))
	set("netreal.write_ns", d.p50("netreal.write"))
	set("netreal.flush_ns", d.p50("netreal.flush"))
	set("netreal.ready_wait_us", d.p50("netreal.ready_wait")/1e3)
	set("memcached.req_self_us", float64(pctOf(d.reqSelf, 50))/1e3)
}

func sendToDoneP50(rec *phaseRec) float64 {
	var l []int64
	for i := range rec.done {
		if d := rec.done[i].Load(); d > 0 {
			l = append(l, d-rec.sent[i])
		}
	}
	slices.Sort(l)
	return float64(percentile(l, 50))
}
