package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
)

// maxRejoin bounds how long a restarted node may take to rejoin and
// serve, the gateway's own deadline; a run that exceeds it fails.
const maxRejoin = 20 * time.Second

// cycleReserve is the time a run keeps past its last kill cycle: one
// cycle stalled to the gateway deadline (a burst request outstanding
// through it) plus the correctness gate's wait for the cluster to go
// idle. No cycle starts later than this before the run's deadline.
const cycleReserve = 70 * time.Second

// cycleResult is what the kill -9 cycles measured.
type cycleResult struct {
	load       *phaseResult
	failoverS  []float64
	rejoinS    []float64
	recoveryMS []float64
	recovery   []durable.RecoveryStats
	// joinMS is restart → the victim's JoinEvent (its last hosted
	// shard's); refreshMS is that JoinEvent → the first event-loop check
	// that sees no object locked for rule R5; viewchangeMS is kill → a
	// survivor's join of the partition that excludes the victim.
	joinMS, refreshMS, viewchangeMS []float64
	// bursts are the writes to the probe object sent around each kill
	// (rejoin only); missed counts, per cycle, those committed before
	// the restart, and journalCycles the cycles whose catch-up of them
	// was served from the survivors' journals.
	bursts        []*phaseResult
	missed        []int64
	journalCycles int
}

// burstSlack is how long past the downtime the restart waits for a
// burst still running. A burst normally ends well inside the downtime;
// one stalled behind a storm of view changes is left to finish after
// the restart.
const burstSlack = 2 * time.Second

// burst commits up to n increments of obj one after another from a
// single session, so the gateway cannot coalesce them: each is its own
// version in the object's log. It stops sending at deadline.
func burst(d *loadgen, obj int32, n int, deadline time.Time) *phaseResult {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opIncr, a: obj}
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	return d.run(ctx, &phasePlan{name: "burst", kind: pacedLoop, sessions: [][]op{ops}})
}

// committedBefore counts a phase's requests committed before t.
func committedBefore(p *phaseResult, t time.Time) int64 {
	var n int64
	for _, s := range p.samples {
		if s.out == committed && s.done.Before(t) {
			n++
		}
	}
	return n
}

// runCycles keeps the paced load of plan running while it kills node
// killVictim k times: FileJournal.HardCrash plus TCPNode.Stop, the
// workload's downtime, then a restart from the node's data dir through
// the restore constructors. After each restart it waits until the node
// has joined a partition in every hosted shard, finished rule R5 and
// served a read sent straight to it. In rejoin it then waits until the
// node's own copy of the probe object holds every write acknowledged
// before the restart, and counts the cycle as one whose catch-up went
// past the in-memory log into the journals if the victim missed more
// than LogCap writes of it, a survivor's journal served a catch-up scan
// and no object fell back to a full-copy read. Storms of view changes
// can stall a cycle for up to the gateway's deadline; no cycle starts
// after stopBy, and the caller marks a run with fewer cycles invalid.
func runCycles(c *cluster, d *loadgen, plan *phasePlan, w *workloadSpec, stopBy time.Time) (*cycleResult, error) {
	res := &cycleResult{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loadDone := make(chan *phaseResult, 1)
	go func() { loadDone <- d.run(ctx, plan) }()

	victim := model.ProcID(killVictim)
	probe := c.objs[d.led.probeObj]
	// kills are when each cycle's kill fell, and killShards the shard
	// whose probe round it was timed against.
	var kills []time.Time
	var killShards []model.ShardID
	time.Sleep(rejoinSettle)
	for i := 0; i < w.KillCycles && time.Now().Before(stopBy); i++ {
		scans, fullReads := c.counter(metrics.CJournalCatchupScans), c.counter(metrics.CRefreshReads)
		at, sh := nextProbe(c.node(victim))
		time.Sleep(time.Until(at))
		killed := time.Now()
		c.kill(victim)
		kills = append(kills, killed)
		killShards = append(killShards, sh)
		var burstDone chan *phaseResult
		var b *phaseResult
		if w.MissedBurst > 0 {
			burstDone = make(chan *phaseResult, 1)
			go func() { burstDone <- burst(d, d.led.probeObj, w.MissedBurst, killed.Add(maxRejoin)) }()
			select {
			case b = <-burstDone:
			case <-time.After(time.Until(killed.Add(w.Downtime + burstSlack))):
			}
		}
		time.Sleep(time.Until(killed.Add(w.Downtime)))
		for _, e := range c.ev.since(killed) {
			if e.key.p != victim && e.join {
				res.viewchangeMS = append(res.viewchangeMS, msBetween(killed, e.at))
				break
			}
		}

		restart := time.Now()
		missedUpTo := d.led.ackedProbe()
		if err := c.start(victim, true); err != nil {
			return nil, err
		}
		m := c.node(victim)
		res.recoveryMS = append(res.recoveryMS, m.recoveryMS)
		res.recovery = append(res.recovery, m.recovery)
		wctx, wcancel := context.WithTimeout(ctx, maxRejoin)
		err := c.ev.wait(wctx, func(st map[memberKey]memberState) bool { return c.settled(st, model.NoProc) })
		wcancel()
		if err != nil {
			return nil, fmt.Errorf("cycle %d: node %v did not rejoin: %w", i+1, victim, err)
		}
		var joined time.Time
		for _, e := range c.ev.since(restart) {
			if e.key.p == victim && e.join {
				joined = e.at
			}
		}
		res.joinMS = append(res.joinMS, msBetween(restart, joined))
		fresh, err := waitRefreshed(m, restart.Add(maxRejoin))
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i+1, err)
		}
		res.refreshMS = append(res.refreshMS, msBetween(joined, fresh))
		want := d.led.ackedProbe()
		got, err := directRead(c.addrs[victim], probe, restart.Add(maxRejoin))
		if err != nil || !got.Committed || len(got.Reads) != 1 {
			c.ev.dump(os.Stderr, killed)
			return nil, fmt.Errorf("cycle %d: restarted node %v served no read: %v", i+1, victim, err)
		}
		if got.Reads[0].Ver.Less(want) {
			d.led.violate("rejoin-freshness", "restarted node %v read %s at %v, older than acknowledged %v",
				victim, probe, got.Reads[0].Ver, want)
		}
		res.rejoinS = append(res.rejoinS, time.Since(restart).Seconds())
		line := fmt.Sprintf("cycle %d: recovery %.0fms join %.0fms refresh %.0fms rejoin %.3fs",
			i+1, m.recoveryMS, res.joinMS[len(res.joinMS)-1], res.refreshMS[len(res.refreshMS)-1], res.rejoinS[len(res.rejoinS)-1])
		if burstDone != nil {
			if b == nil {
				b = <-burstDone
			}
			res.bursts = append(res.bursts, b)
			missed := committedBefore(b, restart)
			res.missed = append(res.missed, missed)
			// The probe's missed writes are past every survivor's in-memory
			// log, so with no full-copy read its catch-up came from a journal.
			// A copy still behind after maxRejoin leaves the cycle out of
			// journalCycles (the run is invalid); whether the replicas end
			// up equal is the correctness gate's to judge.
			if err := waitCopy(m, probe, missedUpTo, restart.Add(maxRejoin)); err != nil {
				line += fmt.Sprintf(" (%v)", err)
			} else if missed > logCap && c.counter(metrics.CJournalCatchupScans) > scans &&
				c.counter(metrics.CRefreshReads) == fullReads {
				res.journalCycles++
			}
			line += fmt.Sprintf(" burst: missed %d, down %.0fms, longest wait %.0fms", missed,
				msBetween(killed, restart), longestWait(b, killed))
		}
		fmt.Fprintln(os.Stderr, line)
		time.Sleep(rejoinSettle)
	}
	cancel()
	res.load = <-loadDone
	res.load.name = "cycles"
	for i, kill := range kills {
		// The first increment to the shard the kill was timed against: a
		// transfer may also wait for its other shard's view change, which
		// that shard's survivors start on their own probe schedule.
		sh := killShards[i]
		touches := func(o op) bool {
			return o.kind == opIncr && (sh == model.NoShard || c.shardOf(c.objs[o.a]) == sh)
		}
		f, ok := firstWriteAfter(res.load, kill, touches)
		if !ok {
			return nil, fmt.Errorf("no increment to shard %v of node %v committed after a kill", sh, victim)
		}
		res.failoverS = append(res.failoverS, f)
	}
	return res, nil
}

// killLead is how long before a survivor's next probe round the victim
// is killed.
const killLead = 20 * time.Millisecond

// nextProbe predicts, from the last probe the victim received, when
// the survivor that sent it probes again (every π), and returns the
// first such time at least killLead ahead, less killLead, with the
// shard that probe was for. Killing then makes that survivor's next
// round the one that finds the victim gone, so failover_s, timed to the
// first increment to that shard, measures the view change itself (the
// 2δ probe window, the new partition, rule R5, the retried write)
// rather than where the kill fell in the survivors' probe period, which
// spread the median over a run's cycles by ±10% from run to run. A
// restarted node may not have been probed yet; then it waits for the
// first probe, at most maxRejoin.
func nextProbe(m *memberNode) (time.Time, model.ShardID) {
	last := m.wrap.probed.Load()
	for give := time.Now().Add(maxRejoin); last == nil && time.Now().Before(give); last = m.wrap.probed.Load() {
		time.Sleep(5 * time.Millisecond)
	}
	now := time.Now()
	if last == nil {
		return now, model.NoShard
	}
	at := last.at
	for at.Add(-killLead).Before(now) {
		at = at.Add(clusterPi)
	}
	return at.Add(-killLead), last.shard
}

// waitRefreshed polls the node's event loop until every hosted
// instance is assigned and none holds an object locked for rule R5.
func waitRefreshed(m *memberNode, deadline time.Time) (time.Time, error) {
	for time.Now().Before(deadline) {
		var ready bool
		var at time.Time
		if onLoop(m.tcp, time.Second, func() {
			ready = m.wrap.assigned() && !m.wrap.refreshing()
			at = time.Now()
		}) && ready {
			return at, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("node %v did not finish rule R5 refresh", m.id)
}

// waitCopy polls the node's event loop until its own copy of obj is at
// least version v.
func waitCopy(m *memberNode, obj model.ObjectID, v model.Version, deadline time.Time) error {
	for time.Now().Before(deadline) {
		var ok bool
		if onLoop(m.tcp, time.Second, func() {
			cur, held := m.wrap.copyVer(obj)
			ok = held && !cur.Less(v)
		}) && ok {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	var cur model.Version
	onLoop(m.tcp, time.Second, func() { cur, _ = m.wrap.copyVer(obj) })
	return fmt.Errorf("node %v never caught its copy of %s up to %v (it holds %v)", m.id, obj, v, cur)
}

// firstWriteAfter finds the first committed write due at or after t
// that touches accepts, and returns how long after t it committed.
func firstWriteAfter(p *phaseResult, t time.Time, touches func(op) bool) (float64, bool) {
	var best *sample
	for i := range p.samples {
		s := &p.samples[i]
		if s.op.kind == opRead || s.out != committed || s.due.Before(t) || !touches(s.op) {
			continue
		}
		if best == nil || s.due.Before(best.due) {
			best = s
		}
	}
	if best == nil {
		return 0, false
	}
	return best.done.Sub(t).Seconds(), true
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// longestWait is the longest a burst waited between the kill, its
// successive commits and its end.
func longestWait(b *phaseResult, from time.Time) float64 {
	var w float64
	last := from
	for _, s := range b.samples {
		w = max(w, msBetween(last, s.done))
		last = s.done
	}
	return w
}
