package main

import (
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	vmetrics "github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
)

// procStats are the process-wide totals a window subtracts.
type procStats struct {
	cpuNS         int64 // getrusage user + sys
	allocs        uint64
	gcCPU, allCPU float64
}

func readProc() procStats {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return procStats{
		cpuNS:  ru.Utime.Nano() + ru.Stime.Nano(),
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		allCPU: s[2].Value.Float64(),
	}
}

// snap is one instant of every cumulative counter the traced run reads.
type snap struct {
	at    time.Time
	nodes map[model.ProcID]layerCounts
	node  map[string]int64 // summed over node registries
	gw    map[string]int64
	proc  procStats
}

func takeSnap(c *cluster, tr *tracer) snap {
	s := snap{at: time.Now(), nodes: map[model.ProcID]layerCounts{}, node: map[string]int64{},
		gw: c.gwReg.Counters(), proc: readProc()}
	for _, r := range c.registries() {
		for k, v := range r.Counters() {
			s.node[k] += v
		}
	}
	tr.mu.Lock()
	lts := make([]*nodeTrace, 0, len(tr.nodes))
	for _, lt := range tr.nodes {
		lts = append(lts, lt)
	}
	tr.mu.Unlock()
	for _, lt := range lts {
		s.nodes[lt.p] = lt.counts()
	}
	return s
}

// windowSnap brackets the measured traced phases. steadyVPs is the
// number of partitions created between the start of the paced phase and
// the end of saturation, before any kill.
type windowSnap struct {
	a, b      snap
	steadyVPs int64
}

func (w *windowSnap) begin(c *cluster, tr *tracer) { w.a = takeSnap(c, tr) }
func (w *windowSnap) end(c *cluster, tr *tracer)   { w.b = takeSnap(c, tr) }

func (w *windowSnap) node(k string) float64 { return float64(w.b.node[k] - w.a.node[k]) }
func (w *windowSnap) gw(k string) float64   { return float64(w.b.gw[k] - w.a.gw[k]) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics of a traced run. Latency
// samples come from the paced phase; counts and busy time from the
// whole traced window (paced, saturation and any kill cycles), divided
// by the requests committed in it.
func perLayer(tr *tracer, win *windowSnap, w *workloadSpec, paced, sat, satOff *phaseResult,
	cyc *cycleResult, window []*phaseResult, attempted, failed int64) map[string]metric {

	var commits float64
	for _, p := range window {
		commits += float64(p.committed())
	}
	wall := win.b.at.Sub(win.a.at).Seconds()

	var txnMS, txnReadMS, txnWriteMS, prepMS, syncMS []float64
	var busyMax float64
	var lc layerCounts
	var txns, cross int64
	tr.mu.Lock()
	lts := make([]*nodeTrace, 0, len(tr.nodes))
	for _, lt := range tr.nodes {
		lts = append(lts, lt)
	}
	tr.mu.Unlock()
	for _, lt := range lts {
		lt.mu.Lock()
		txnMS = append(txnMS, lt.txnReadMS...)
		txnMS = append(txnMS, lt.txnWriteMS...)
		txnReadMS = append(txnReadMS, lt.txnReadMS...)
		txnWriteMS = append(txnWriteMS, lt.txnWriteMS...)
		prepMS = append(prepMS, lt.prepMS...)
		syncMS = append(syncMS, lt.syncMS...)
		txns += lt.txns
		cross += lt.crossTxns
		lt.mu.Unlock()
		d := win.b.nodes[lt.p].sub(win.a.nodes[lt.p])
		lc.busyNS += d.busyNS
		lc.bytes += d.bytes
		lc.catchupB += d.catchupB
		lc.encodeNS += d.encodeNS
		lc.syncs += d.syncs
		lc.logsinceNS += d.logsinceNS
		lc.logsinces += d.logsinces
		if f := float64(d.busyNS) / 1e9 / wall; f > busyMax {
			busyMax = f
		}
	}
	tr.gw.mu.Lock()
	serveMS := append(append([]float64(nil), tr.gw.readMS...), tr.gw.writeMS...)
	tr.gw.mu.Unlock()

	// Attribution for the workload's dominant request kind. Coverage
	// adds only the layers timed on their own, each by its own wrapper:
	// the wait in the generator and the transaction at the coordinator
	// node. The rest of the gateway's ServeHTTP time (its own code, the
	// batch window, the gateway → node hop) is gateway.self_ms.mean: the
	// part no seam accounts for, which coverage leaves out.
	reads := w.ReadFraction > 0.5
	var e2e, queue, serve []float64
	for _, s := range paced.samples {
		if s.out != committed || (s.op.kind == opRead) != reads {
			continue
		}
		e2e = append(e2e, msBetween(s.due, s.done))
		queue = append(queue, msBetween(s.due, s.sent))
		serve = append(serve, float64(s.serveNS)/1e6)
	}
	nodeTxn := mean(txnWriteMS)
	if reads {
		nodeTxn = mean(txnReadMS)
	}
	self := mean(serve) - nodeTxn

	var lanes, laneRounds float64
	for k, v := range win.b.gw {
		if strings.HasPrefix(k, vmetrics.CGwBatchedWrites+".s") {
			lanes += float64(v - win.a.gw[k])
		} else if strings.HasPrefix(k, vmetrics.CGwBatchRounds+".s") {
			laneRounds += float64(v - win.a.gw[k])
		}
	}
	cpu := win.b.proc.cpuNS - win.a.proc.cpuNS
	commits1 := commits
	if commits1 == 0 {
		commits1 = 1
	}
	m := map[string]metric{
		"gateway.serve_ms.p50":           {quantile(serveMS, 0.5), "ms"},
		"gateway.self_ms.mean":           {self, "ms"},
		"gateway.rounds_per_write":       {ratio(win.gw(vmetrics.CGwWriteTxns), win.gw(vmetrics.CGwWriteCommitted)), "1"},
		"gateway.batch_size.mean":        {ratio(win.gw(vmetrics.CGwBatchedWrites), win.gw(vmetrics.CGwBatchRounds)), "count"},
		"gateway.stale_retries_per_read": {ratio(win.gw(vmetrics.CGwStaleRetries), win.gw(vmetrics.CGwReadCommitted)), "1"},
		"gateway.shed_ratio":             {ratio(win.gw(vmetrics.CGwShed), float64(attempted)), "1"},
		"node.txn_ms.p50":                {quantile(txnMS, 0.5), "ms"},
		"node.txn_ms.p99":                {quantile(txnMS, 0.99), "ms"},
		"node.prepare_ms.p50":            {quantile(prepMS, 0.5), "ms"},
		"node.busy_frac.max":             {busyMax, "1"},
		"node.busy_us_per_commit":        {float64(lc.busyNS) / 1e3 / commits1, "us"},
		"node.msgs_per_commit":           {win.node(vmetrics.CMsgSent) / commits1, "count"},
		"node.abort_ratio":               {ratio(win.node(vmetrics.CTxnAbort), win.node(vmetrics.CTxnCommit)+win.node(vmetrics.CTxnAbort)), "1"},
		"durable.sync_ms.p50":            {quantile(syncMS, 0.5), "ms"},
		"durable.sync_ms.p99":            {quantile(syncMS, 0.99), "ms"},
		"durable.syncs_per_commit":       {win.node(vmetrics.CJournalFsyncs) / commits1, "count"},
		"durable.records_per_sync":       {ratio(win.node(vmetrics.CJournalRecords), win.node(vmetrics.CJournalFsyncs)), "count"},
		"durable.bytes_per_write":        {ratio(win.node(vmetrics.CJournalBytes), writesIn(window)), "B"},
		"durable.recovery_ms":            {median(cyc.recoveryMS), "ms"},
		"durable.recovery_records":       {median(recoveryRecords(cyc)), "count"},
		"durable.logsince_ms.total":      {float64(lc.logsinceNS) / 1e6, "ms"},
		"durable.logsince_calls":         {float64(lc.logsinces), "count"},
		"core.view_changes":              {float64(win.steadyVPs), "count"},
		"core.viewchange_ms":             {median(cyc.viewchangeMS), "ms"},
		"core.join_ms":                   {median(cyc.joinMS), "ms"},
		"core.refresh_ms":                {median(cyc.refreshMS), "ms"},
		"core.catchup_writes":            {win.node(vmetrics.CCatchupWrites), "count"},
		"core.refresh_full_reads":        {win.node(vmetrics.CRefreshReads), "count"},
		"shard.cross_frac":               {ratio(float64(cross), float64(txns)), "1"},
		"shard.lane_batch_size.mean":     {ratio(lanes, laneRounds), "count"},
		"net.bytes_per_commit":           {float64(lc.bytes) / commits1, "B"},
		"net.catchup_bytes_per_rejoin":   {float64(lc.catchupB) / float64(max(len(cyc.rejoinS), 1)), "B"},
		"net.peer_reconnects":            {win.node(vmetrics.CPeerReconnect), "count"},
		"wire.encode_us_per_commit":      {float64(lc.encodeNS) / 1e3 / commits1, "us"},
		"process.cpu_ms_per_commit":      {float64(cpu) / 1e6 / commits1, "ms"},
		"process.allocs_per_commit":      {float64(win.b.proc.allocs-win.a.proc.allocs) / commits1, "count"},
		"process.gc_cpu_frac":            {ratio(win.b.proc.gcCPU-win.a.proc.gcCPU, win.b.proc.allCPU-win.a.proc.allCPU), "1"},
		"loadgen.lag_ms.p99":             {quantile(paced.lagMS, 0.99), "ms"},
		"attr.coverage":                  {ratio(mean(queue)+nodeTxn, mean(e2e)), "1"},
		"trace.overhead":                 {ratio(satTPS(sat), satTPS(satOff)), "1"},
		"fail_ratio":                     {ratio(float64(failed), float64(attempted)), "1"},
	}
	return m
}

// writesIn counts the write requests committed in the phases.
func writesIn(ps []*phaseResult) float64 {
	n := 0
	for _, p := range ps {
		for _, s := range p.samples {
			if s.out == committed && s.op.kind != opRead {
				n++
			}
		}
	}
	return float64(n)
}

func recoveryRecords(cyc *cycleResult) []float64 {
	var out []float64
	for _, r := range cyc.recovery {
		out = append(out, float64(r.Records))
	}
	return out
}
