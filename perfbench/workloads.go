package main

import (
	"fmt"
	"time"
)

// workloadSpec is one set of inputs the benchmark runs. Every field is
// fixed here; the seed only varies which requests are drawn.
type workloadSpec struct {
	Name             string
	Nodes            int
	Shards, Replicas int // Shards 1: unsharded
	Objects          int
	Zipf             float64
	ReadFraction     float64
	TransferFraction float64 // share of the writes that are two-object transfers
	PacedRate        float64 // open-loop requests per second in the paced phase
	// SatRate sizes the saturation phase: it sends SatRate requests per
	// second of its length, about what the workload commits per second
	// at saturation on a 2-vCPU host.
	SatRate    float64
	KillCycles int // kill -9 / restart cycles of node killVictim
	Downtime   time.Duration
	// MissedBurst increments of one object the victim holds are
	// committed while it is down, so its catch-up must reach past the
	// in-memory log (LogCap) into the survivors' journals.
	MissedBurst int
	// SegmentBytes, when set, overrides the journal's segment size
	// (tests use it to get a retained log tail quickly).
	SegmentBytes int64
	// Reason is why the workload exists: the layer it loads.
	Reason string
}

// why is the one-line description BENCHMARK.json carries for the
// workload: its parameters, then its reason.
func (w *workloadSpec) why() string {
	shape := fmt.Sprintf("%d nodes", w.Nodes)
	if w.Shards > 1 {
		shape += fmt.Sprintf(", %d shards x %d copies", w.Shards, w.Replicas)
	}
	mix := fmt.Sprintf("%.0f%% reads", 100*w.ReadFraction)
	if w.TransferFraction > 0 {
		mix += fmt.Sprintf(", %.0f%% of writes transfers", 100*w.TransferFraction)
	}
	keys := fmt.Sprintf("%d objects", w.Objects)
	if w.Zipf > 0 {
		keys += fmt.Sprintf(" zipf %.2f", w.Zipf)
	}
	s := fmt.Sprintf("%s, %s, %s, paced %.0f/s", shape, mix, keys, w.PacedRate)
	s += fmt.Sprintf(", %d kill-9 cycles down %.1fs", w.KillCycles, w.Downtime.Seconds())
	if w.MissedBurst > 0 {
		s += fmt.Sprintf(" missing %d writes to one object", w.MissedBurst)
	}
	return s + ": " + w.Reason
}

// workloads is the benchmark's fixed set. Paced rates sit at 12–16% of
// the saturation throughput each workload reaches on a 2-vCPU host, low
// enough that bursts of CPU steal on a shared host do not tip the paced
// phase into a growing backlog. Every workload ends with kill -9 cycles,
// so failover and rejoin are measured under each topology; a cycle's
// failover and rejoin times spread by about 30% around their mean, so
// the median over 20 cycles is what holds them steady; in rejoin the
// victim also misses more writes to one object than the in-memory log
// (LogCap) holds. Object counts stay at 1000: every view change makes
// each node refresh every object under rule R5, one RecoverLog per
// object and peer on retry, and at 2000 objects on three nodes that
// traffic now and then overflows the transport's per-peer queue, drops
// probes and sets off a storm of view changes that stalls writes for
// the gateway's whole deadline (at 3000 partitions never settle).
var workloads = []*workloadSpec{
	{
		Name: "sharded-transfer", Nodes: 5, Shards: 4, Replicas: 3, Objects: 1000,
		ReadFraction: 0.5, TransferFraction: 0.2, PacedRate: 400, SatRate: 2500, KillCycles: 20, Downtime: 700 * time.Millisecond,
		Reason: "shard router, per-shard conveyor lanes and cross-shard 2PC",
	},
	{
		Name: "rejoin", Nodes: 3, Shards: 1, Objects: 1000, Zipf: 0.99,
		ReadFraction: 0.5, PacedRate: 500, SatRate: 3500, KillCycles: 20, Downtime: 1000 * time.Millisecond,
		MissedBurst: logCap + 64,
		Reason:      "recovery replay, view change, catch-up past the in-memory log into the journal",
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Kill-cycle timing: the victim stays down for the workload's
// Downtime, longer than the survivors' §5 view change (Δ = π + 8δ =
// 650 ms); the next kill waits rejoinSettle after the restarted node has
// served its first read.
const (
	killVictim   = 3
	rejoinSettle = 200 * time.Millisecond
)
