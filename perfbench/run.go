package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// runConfig is one invocation.
type runConfig struct {
	w       *workloadSpec
	seed    int64
	seconds int
	traced  bool
	out     string
	// deadline is when the run gives up; the kill cycles stop early
	// enough to leave time for the last cycle and the checks.
	deadline time.Time
}

// runReport is what a run prints: a human-readable report line, then
// the contract line.
type runReport struct {
	report     map[string]any
	result     result
	violations []string
}

// setupBoots is how many clusters a run boots to take the median
// set-up time; the last one carries the load.
const setupBoots = 9

// phaseLengths gives the paced phase all of --seconds, since the
// latency metrics rest on its samples, and sizes the saturation phase to
// half of it; warm-up is one second of the paced load before either.
// The kill cycles run until they are done, at most until the run's time
// limit.
func phaseLengths(seconds int) phaseTimes {
	total := time.Duration(seconds) * time.Second
	return phaseTimes{warm: time.Second, paced: total, sat: total / 2, cycles: runLimit(seconds)}
}

func runBenchmark(cfg runConfig) (*runReport, error) {
	w := cfg.w
	root := filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	objs := workload.Objects(w.Objects)
	sched := buildSchedule(cfg.seed, w, objs, phaseLengths(cfg.seconds))

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}

	// Set-up: boot several clusters, keep the last.
	var setups []float64
	var c *cluster
	for i := 0; i < setupBoots; i++ {
		var trBoot *tracer
		if i == setupBoots-1 {
			trBoot = tr
		}
		cl, secs, err := bootReady(w, filepath.Join(root, fmt.Sprintf("c%d", i)), trBoot)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if i < setupBoots-1 {
			cl.stop()
		} else {
			c = cl
		}
	}
	defer c.stop()

	led := newLedger(w.Objects)
	led.probeObj = probeObject(c)
	d := &loadgen{h: c.gw.Handler(), objs: objs, led: led, dumpDir: cfg.out}
	if tr != nil {
		tr.bind(c)
		d.h = &gatewayWrap{inner: c.gw.Handler(), gt: tr.gw}
	}

	ctx := context.Background()
	d.run(ctx, &sched.warm)
	var satOff *phaseResult
	if tr != nil {
		// The traced run also measures saturation with the wrappers
		// forwarding only, for trace.overhead.
		tr.setOn(false)
		satOff = d.run(ctx, &sched.sat)
		tr.setOn(true)
	}

	vps := c.counter(metrics.CVPCreated)
	var window windowSnap
	if tr != nil {
		window.begin(c, tr)
		tr.window.Store(true)
	}
	paced := d.run(ctx, &sched.paced)
	peakHeap := liveHeapMB()
	if tr != nil {
		tr.window.Store(false)
	}
	sat := d.run(ctx, &sched.sat)
	// Partitions created while nothing failed: 0 unless load alone
	// makes the protocol suspect a peer.
	steadyVPs := c.counter(metrics.CVPCreated) - vps
	window.steadyVPs = steadyVPs
	cyc, err := runCycles(c, d, &sched.cycles, w, cfg.deadline.Add(-cycleReserve))
	if err != nil {
		return nil, err
	}
	if tr != nil {
		window.end(c, tr)
	}
	phases := append([]*phaseResult{paced, sat, cyc.load}, cyc.bursts...)

	chk := checkRun(c, led)
	rep := &runReport{violations: chk.violations, report: map[string]any{
		"workload": w.Name, "seed": cfg.seed, "seconds": cfg.seconds, "traced": cfg.traced,
		"config": map[string]any{
			"codec": "binary", "batching": true, "flush": "fsync at prepare-ack and decide plus 2ms group commit",
			"delta_ms": clusterDelta.Milliseconds(), "pi_ms": clusterPi.Milliseconds(), "log_cap": logCap,
			"nodes": w.Nodes, "shards": w.Shards, "replicas": w.Replicas, "objects": w.Objects,
			"zipf": w.Zipf, "read_fraction": w.ReadFraction, "transfer_fraction": w.TransferFraction,
			"paced_rate": w.PacedRate, "kill_cycles": w.KillCycles, "downtime_s": w.Downtime.Seconds(),
			"kill_cycles_done": len(cyc.rejoinS),
			"closed_sessions":  closedSessions, "paced_sessions": pacedSessions,
		},
		"host":       hostStamp(),
		"violations": chk.violations,
	}}
	var attempted, failed int64
	for _, p := range phases {
		attempted += p.attempts
		failed += p.failed()
	}
	rep.result = result{Correct: len(chk.violations) == 0, Attempted: attempted, Failed: failed}
	rep.report["fail_ratio"] = ratio(float64(failed), float64(attempted))
	byPhase := map[string]any{}
	for _, p := range phases {
		sum, _ := byPhase[p.name].(map[string]int64)
		if sum == nil {
			sum = map[string]int64{}
			byPhase[p.name] = sum
		}
		sum["attempted"] += p.attempts
		sum["committed"] += p.byOut[committed]
		sum["refused"] += p.byOut[refused]
		sum["shed"] += p.byOut[shed]
		sum["timed_out"] += p.byOut[timedOut]
		sum["hung"] += p.byOut[hung]
		sum["ms"] += p.ended.Sub(p.began).Milliseconds()
	}
	rep.report["phases"] = byPhase
	rep.report["cycles"] = map[string]any{"failover_s": cyc.failoverS, "rejoin_s": cyc.rejoinS,
		"missed_writes": cyc.missed, "journal_catchup_cycles": cyc.journalCycles}
	rep.report["view_changes_steady"] = steadyVPs
	rep.report["redelivered_steps"] = chk.redelivered

	// A run is invalid, not slow, when it did not measure what it is
	// for: the generator fell behind its schedule, stalls left no time
	// for every kill cycle, or a rejoin cycle's catch-up did not reach
	// past the in-memory log into the journals.
	lag := quantile(paced.lagMS, 0.99)
	valid := true
	if lag > lagLimitMS {
		valid = false
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: generator lag p99 %.2f ms exceeds %.1f ms\n", lag, lagLimitMS)
	}
	if len(cyc.rejoinS) < w.KillCycles {
		valid = false
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: %d of %d kill cycles done before the time limit\n",
			len(cyc.rejoinS), w.KillCycles)
	}
	if w.MissedBurst > 0 && cyc.journalCycles < len(cyc.missed) {
		valid = false
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: %d of %d cycles caught up from the journals (missed writes %v, LogCap %d)\n",
			cyc.journalCycles, len(cyc.missed), cyc.missed, logCap)
	}
	rep.report["loadgen_lag_p99_ms"] = lag
	rep.report["valid"] = valid

	e2e := endToEnd(setups, paced, cyc, peakHeap)
	// Saturation throughput stays out of the end-to-end metrics: on a
	// shared host it moved by up to 28% (IQR/median over ten seeds) with
	// the neighbours' load, more than any bound can allow.
	rep.report["sat_tps"] = satTPS(sat)
	rep.report["end_to_end"] = e2e
	reads, writes := latencies(paced)
	rep.report["paced_p90_ms"] = map[string]float64{"read": windowed(reads, 0.9, tailWindow), "write": windowed(writes, 0.9, tailWindow)}
	rep.report["paced_p99_ms"] = map[string]float64{"read": quantile(reads, 0.99), "write": quantile(writes, 0.99)}
	if !cfg.traced {
		rep.result.Metrics = e2e
		return rep, nil
	}
	layers := perLayer(tr, &window, w, paced, sat, satOff, cyc, phases, attempted, failed)
	rep.result.Metrics = layers
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s.jsonl", w.Name))
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	rep.report["spans"] = path
	rep.report["spans_dropped"] = tr.dropped
	if cov := layers["attr.coverage"].Value; cov < 0.9 {
		rep.report["attr_coverage_flag"] = fmt.Sprintf("named layers explain %.0f%% of the end-to-end mean, under 90%%", 100*cov)
	}
	return rep, nil
}

// probeObject is the object the kill cycles read straight from the
// restarted node, and the one rejoin's burst writes while the node is
// down: the last one the victim holds a copy of. Under zipf that is
// the coldest, so the burst's increments do not queue behind the paced
// load's on a hot object.
func probeObject(c *cluster) int32 {
	hosted := map[model.ShardID]bool{}
	for _, s := range c.hosts(killVictim) {
		hosted[s] = true
	}
	for i := len(c.objs) - 1; i >= 0; i-- {
		if hosted[c.shardOf(c.objs[i])] {
			return int32(i)
		}
	}
	return 0
}

// lagLimitMS is the generator-health limit: a run whose paced sends
// were dispatched later than this at p99 measured the generator, not
// the program, and is marked invalid.
const lagLimitMS = 20.0

// bootReady boots a cluster and waits until every node sits in one
// partition per shard and a first request has committed through the
// gateway. It returns the cluster and that set-up time in seconds.
func bootReady(w *workloadSpec, root string, tr *tracer) (*cluster, float64, error) {
	began := time.Now()
	c, err := bootCluster(w, root, tr)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.ev.wait(ctx, func(st map[memberKey]memberState) bool { return c.settled(st, model.NoProc) }); err != nil {
		c.stop()
		return nil, 0, fmt.Errorf("cluster did not form its partitions: %w", err)
	}
	d := &loadgen{h: c.gw.Handler(), objs: c.objs, led: newLedger(w.Objects)}
	for {
		if out, _ := d.do(&session{marks: map[int32]model.Version{}}, op{kind: opRead}); out == committed {
			break
		}
		if ctx.Err() != nil {
			c.stop()
			return nil, 0, fmt.Errorf("no first commit after boot")
		}
	}
	return c, time.Since(began).Seconds(), nil
}

// directRead submits a read of obj straight to a node's client port.
func directRead(addr string, obj model.ObjectID, deadline time.Time) (wire.ClientResult, error) {
	return vnet.SubmitTCPRetry(addr, wire.ClientTxn{Tag: 1, Ops: []wire.Op{wire.ReadOp(obj)}},
		200*time.Millisecond, deadline)
}

// quantile returns the nearest-rank q-quantile of vs, 0 when empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t / float64(len(vs))
}
