package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"icilk"
	"icilk/internal/memcached"
	"icilk/internal/netpoll"
	"icilk/internal/netreal"
)

// counters is one reading of every counter the layers already export.
// The per-op layer metrics are deltas of two readings divided by the
// requests completed in between; nothing here reaches inside a layer.
type counters struct {
	// sched: rt.WasteReport(), rt.Snapshot().Resumes, rt.ShardStats()
	work, overhead, waste                    time.Duration
	steals, failedSteals, mugs               int64
	suspends, resumes, sleeps, checks        int64
	sampleMisses, sweeps                     int64
	ioBatches, ioBatchedFns, ioSpills, ioHWM int64 // iopool, via rt.Metrics()

	// netpoll.PollStats, netreal.Stats, Store.Stats
	epollWaits, epollCtls, events, pollBatches, pollFns        int64
	sysReads, sysWrites, readBytes, poolHits, poolMisses, paus int64
	getHits, getMisses, evictions                              int64

	// process
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
	cpu                 time.Duration
}

func readRuntime(c *counters, rt *icilk.Runtime) {
	wr := rt.WasteReport()
	c.work, c.overhead, c.waste = wr.Work, wr.Overhead, wr.Waste
	c.steals, c.failedSteals, c.mugs = wr.Steals, wr.FailedSteals, wr.Muggings
	c.suspends, c.sleeps, c.checks = wr.Suspends, wr.Sleeps, wr.Checks
	c.resumes = rt.Snapshot().Resumes
	_, c.sampleMisses, c.sweeps = rt.ShardStats()
	// The I/O pool is private to the runtime; its counters are
	// exported only through the metric registry's text exposition.
	for _, line := range strings.Split(rt.Metrics().String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "icilk_io_batches_total":
			c.ioBatches = int64(f)
		case "icilk_io_batched_fns_total":
			c.ioBatchedFns = int64(f)
		case "icilk_io_spills_total":
			c.ioSpills = int64(f)
		case "icilk_io_queue_high_water":
			c.ioHWM = int64(f)
		}
	}
}

func readNet(c *counters, ns *netreal.Stats, st *memcached.Store) {
	ps := netpoll.PollStats
	c.epollWaits, c.epollCtls, c.events = ps.EpollWaits(), ps.EpollCtls(), ps.Events()
	c.pollBatches, c.pollFns = ps.Batches(), ps.BatchedFns()
	c.sysReads, c.sysWrites, c.readBytes = ns.SysReads(), ns.SysWrites(), ns.ReadBytes()
	c.poolHits, c.poolMisses, c.paus = ns.PoolHits(), ns.PoolMisses(), ns.Pauses()
	c.getHits, c.getMisses = st.Stats.GetHits.Load(), st.Stats.GetMisses.Load()
	c.evictions = st.Stats.Evictions.Load()
}

func readProcess(c *counters) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	c.gcCycles, c.gcPause = ms.NumGC, time.Duration(ms.PauseTotalNs)
	c.cpu = cpuTime()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds is the CPU time the hypervisor gave to someone else
// since boot, from the first line of /proc/stat (in 1/100 s). A run
// during which it rises by seconds was measured on a contended host:
// one such spell cut mc_tcp's sat_ops_s to a third and ok_frac to 0.81.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

// peakRSSMiB is VmHWM, the process's resident high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
