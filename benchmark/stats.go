package main

import (
	"math"
	"slices"
)

// noReply is the latency recorded for a request that never completed:
// it sorts behind every real sample, so a lost request worsens the
// percentiles instead of vanishing from them.
const noReply = math.MaxInt64

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending slice; 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the driver and the
// acceptance rule use for spread. One value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// windowStat is one whole window of a phase: how many requests were
// due in it, and their latency p99 (ns).
type windowStat struct {
	n   int
	p99 int64
}

// windowStats splits a phase into whole windows of windowNS by due
// time (a trailing partial window is dropped; a phase shorter than
// one window is one window).
func windowStats(due, lat []int64, phaseNS, windowNS int64) []windowStat {
	nw := int(phaseNS / windowNS)
	if nw < 1 {
		nw, windowNS = 1, phaseNS
	}
	buckets := make([][]int64, nw)
	for i, d := range due {
		if w := int(d / windowNS); w < nw {
			buckets[w] = append(buckets[w], lat[i])
		}
	}
	out := make([]windowStat, nw)
	for i, b := range buckets {
		slices.Sort(b)
		out[i] = windowStat{len(b), percentile(b, 99)}
	}
	return out
}

// windowP99 is the tail estimator every *_p99_ms metric uses: the
// median of the windows' p99s. A pooled p99 over a 10-s phase sits on
// a knife edge here (one host stall of a few ms is about 1 % of the
// requests around it) and moved 30-100 % between identical runs; this
// moves less, though on the socket workloads still a lot (README.md).
// It also returns the smallest window's sample count, so the output
// shows what the estimator had to work with.
func windowP99(ws []windowStat) (p99 float64, windows, minSamples int) {
	var p99s []float64
	for _, w := range ws {
		if w.n == 0 {
			continue
		}
		p99s = append(p99s, float64(w.p99))
		if minSamples == 0 || w.n < minSamples {
			minSamples = w.n
		}
	}
	if len(p99s) == 0 {
		return 0, 0, 0
	}
	return median(p99s), len(p99s), minSamples
}
