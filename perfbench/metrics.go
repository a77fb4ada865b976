package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// endToEnd computes the metrics a user of the cluster sees, from the
// untraced phases. Tail latencies are in the report line, not here: a
// burst of CPU steal on the shared host that covers the paced phase
// multiplies a run's p90 by up to five and its median by up to two and a
// half, and three such runs in ten put the p90's spread (IQR/median)
// over 1 while the medians' stayed within 0.17.
func endToEnd(setups []float64, paced *phaseResult, cyc *cycleResult, peakHeapMB float64) map[string]metric {
	reads, writes := latencies(paced)
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"read_p50_ms":  {windowed(reads, 0.5, medianWindow), "ms"},
		"write_p50_ms": {windowed(writes, 0.5, medianWindow), "ms"},
		"peak_heap_mb": {peakHeapMB, "MB"},
		"failover_s":   {median(cyc.failoverS), "s"},
		"rejoin_s":     {median(cyc.rejoinS), "s"},
	}
}

// Slice sizes for windowed quantiles: a tail slice holds twenty
// samples beyond the 90th percentile.
const (
	medianWindow = 100
	tailWindow   = 200
)

// windowed estimates a quantile robustly: it splits the samples, in the
// order they were sent, into as many slices of at least per samples as
// they fill, takes the quantile of each and reports the lower quartile
// of those. On a shared host, neighbours that take the CPU or the disk
// for a few seconds only ever slow a slice down; the lower quartile
// reads the slices they left alone, while a slower program moves every
// slice. With fewer than three slices it is the pooled quantile.
func windowed(vs []float64, q float64, per int) float64 {
	k := len(vs) / per
	if k < 3 {
		return quantile(vs, q)
	}
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(vs[i*len(vs)/k:(i+1)*len(vs)/k], q)
	}
	return quantile(qs, 0.25)
}

// latencies splits a paced phase's committed requests into read and
// write latencies in ms, timed from their due times, in send order.
func latencies(p *phaseResult) (reads, writes []float64) {
	for _, s := range p.samples {
		if s.out != committed {
			continue
		}
		ms := msBetween(s.due, s.done)
		if s.op.kind == opRead {
			reads = append(reads, ms)
		} else {
			writes = append(writes, ms)
		}
	}
	return reads, writes
}

// satSlice is the slice length saturation throughput is counted over.
const satSlice = 500 * time.Millisecond

// satTPS is committed requests per second of a closed phase: the upper
// quartile over satSlice slices of the phase of the requests that
// finished in each, for the reason windowed takes the lower quartile
// of latencies.
func satTPS(p *phaseResult) float64 {
	k := int(p.ended.Sub(p.began) / satSlice)
	if k < 1 {
		k = 1
	}
	per := make([]float64, k)
	for _, s := range p.samples {
		i := int(s.done.Sub(p.began) / satSlice)
		if s.out == committed && i >= 0 && i < k {
			per[i]++
		}
	}
	for i := range per {
		per[i] /= satSlice.Seconds()
	}
	return quantile(per, 0.75)
}

// liveHeapMB collects garbage and returns the heap still reachable, in
// MB. Called at the end of the paced phase, when the process holds the
// most it will have held so far, it is the peak live heap; unlike the
// in-use total it does not swing with when the collector last ran.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
