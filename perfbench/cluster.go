package main

import (
	"fmt"
	stdnet "net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/gateway"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// Cluster settings shared by every workload, for a loopback deployment:
// vpnode's default δ (-delta 50ms), the 2 ms group-commit flusher of
// vpnode -fsync-interval, binary codec, batching on. A probe round waits
// 2δ for its acks, so at the 20 ms δ of vpload -local an event loop or
// host stall of 40 ms set off a view change, and on a shared 2-vCPU host
// such storms now and then kept a restarted node out of every partition
// for seconds. The probe period π (vpnode -pi) is set shorter than its
// 20δ default: failover_s waits for the next probe, so π is the spread
// of each cycle's failover, and the kill cycles stay short.
const (
	clusterDelta  = 50 * time.Millisecond
	clusterPi     = 250 * time.Millisecond
	logCap        = 256
	flushInterval = 2 * time.Millisecond
	shardSeed     = 1
	// Peer redial backoff for a loopback cluster. When a restarted node
	// becomes reachable depends on where the survivors' jittered backoff
	// stands: with vpnode's default 2 s cap rejoin_s split into two modes
	// 0.35 s apart, and with the campaign live platform's 250 ms cap it
	// still spread each cycle's join by up to 250 ms.
	reconnectMin = 20 * time.Millisecond
	reconnectMax = 50 * time.Millisecond
)

// memberNode is one running processor: its transport, journal, the
// protocol handler behind the benchmark's wrapper, and what its
// journal's recovery cost.
type memberNode struct {
	id      model.ProcID
	tcp     *vnet.TCPNode
	journal *durable.FileJournal
	wrap    *handlerWrap
	// recoveryMS is how long OpenOptions took for this incarnation.
	recoveryMS float64
	recovery   durable.RecoveryStats
}

// cluster is an in-process deployment: N durable TCP nodes and one
// gateway whose handler the load generator calls directly.
type cluster struct {
	w     *workloadSpec
	root  string
	addrs map[model.ProcID]string
	procs []model.ProcID
	objs  []model.ObjectID
	cat   *model.Catalog
	smap  *shard.Map
	hist  *onecopy.History
	tr    *tracer // nil in untraced runs

	mu    sync.Mutex
	nodes map[model.ProcID]*memberNode
	// dead keeps the metrics registries of stopped incarnations, so
	// counters survive kill cycles.
	dead []*metrics.Registry

	gw    *gateway.Gateway
	gwReg *metrics.Registry
	ev    *events
	sent  *delivered
}

// bootCluster starts every node from a fresh data dir under root, then
// the gateway. It returns once the transports listen; bootReady waits
// until the protocol has formed its partitions.
func bootCluster(w *workloadSpec, root string, tr *tracer) (*cluster, error) {
	c := &cluster{
		w:     w,
		root:  root,
		addrs: map[model.ProcID]string{},
		objs:  workload.Objects(w.Objects),
		hist:  onecopy.NewHistory(),
		tr:    tr,
		nodes: map[model.ProcID]*memberNode{},
		ev:    newEvents(),
		sent:  newDelivered(),
	}
	ports, err := freePorts(w.Nodes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.Nodes; i++ {
		p := model.ProcID(i + 1)
		c.procs = append(c.procs, p)
		c.addrs[p] = ports[i]
	}
	c.cat = model.FullyReplicated(w.Nodes, c.objs...)
	if w.Shards > 1 {
		c.smap, err = shard.NewMap(shard.Config{
			Shards: w.Shards, Replicas: w.Replicas, Seed: shardSeed,
			Procs: c.procs, Objects: c.objs,
		})
		if err != nil {
			return nil, fmt.Errorf("shard map: %w", err)
		}
	}
	for _, p := range c.procs {
		if err := c.start(p, false); err != nil {
			c.stop()
			return nil, err
		}
	}
	c.gwReg = metrics.NewRegistry()
	// Attempt timeout and deadline as vpload -local sets them: a request
	// rides out a view change instead of failing.
	gcfg := gateway.Config{
		Cluster:  c.addrs,
		Batching: true,
		Codec:    wire.CodecBinary,
		PerTry:   time.Second,
		Deadline: 20 * time.Second,
		Metrics:  c.gwReg,
	}
	if c.smap != nil {
		gcfg.Shards, gcfg.ShardSeed, gcfg.ShardReplicas = w.Shards, shardSeed, w.Replicas
	}
	c.gw = gateway.New(gcfg)
	return c, nil
}

func (c *cluster) dirOf(p model.ProcID) string {
	return filepath.Join(c.root, fmt.Sprintf("n%d", p))
}

// start opens p's journal (replaying it when restart is set) and runs
// the node, exactly as vpnode does with -data.
func (c *cluster) start(p model.ProcID, restart bool) error {
	dir := c.dirOf(p)
	opts := durable.Options{FlushInterval: flushInterval, SegmentBytes: c.w.SegmentBytes}
	if c.smap != nil {
		hosted := c.smap.HostedObjects(p)
		scope := []model.ObjectID{}
		for _, o := range c.objs {
			if hosted(o) {
				scope = append(scope, o)
			}
		}
		opts.Scope = scope
	}
	began := time.Now()
	state, journal, err := durable.OpenOptions(dir, opts)
	if err != nil {
		return fmt.Errorf("open journal of node %v: %w", p, err)
	}
	m := &memberNode{id: p, journal: journal,
		recoveryMS: msBetween(began, time.Now()), recovery: journal.Recovery()}
	var j durable.Journal = journal
	if c.tr != nil {
		j = newJournalWrap(journal, c.tr.layer(p))
	}
	fresh := state.MaxID.IsZero() && len(state.Copies) == 0
	if restart && fresh {
		journal.Close()
		return fmt.Errorf("node %v: restart found an empty journal", p)
	}
	cfg := core.Config{Config: node.Config{Delta: clusterDelta, LogCap: logCap}, Pi: clusterPi, UseLogCatchup: true}
	var h vnet.Handler
	if c.smap != nil {
		var r *shard.Router
		if fresh {
			r = shard.NewRouterDurable(p, cfg, c.smap, c.hist, j)
		} else {
			r = shard.NewRouterRestored(p, cfg, c.smap, c.hist, state, j)
		}
		r.Observer = func(s model.ShardID, ev any) { c.ev.observe(p, s, ev) }
		h = r
	} else {
		var nd *core.Node
		if fresh {
			nd = core.NewDurable(p, cfg, c.cat, c.hist, j)
		} else {
			nd = core.NewRestored(p, cfg, c.cat, c.hist, state, j)
		}
		nd.Observer = func(ev any) { c.ev.observe(p, model.NoShard, ev) }
		h = nd
	}
	m.wrap = newHandlerWrap(h, c.tr.layer(p), c.sent)
	m.tcp = vnet.NewTCPNodeConfig(p, c.addrs, m.wrap, vnet.TCPConfig{
		ReconnectMin: reconnectMin, ReconnectMax: reconnectMax, Codec: wire.CodecBinary})
	journal.SetMetrics(m.tcp.Metrics())
	if err := m.tcp.Run(); err != nil {
		journal.Close()
		return fmt.Errorf("start node %v: %w", p, err)
	}
	c.mu.Lock()
	c.nodes[p] = m
	c.mu.Unlock()
	return nil
}

// kill crashes p as kill -9 would: the journal drops its unsynced batch
// and the transport goes away without a goodbye.
func (c *cluster) kill(p model.ProcID) {
	c.mu.Lock()
	m := c.nodes[p]
	delete(c.nodes, p)
	c.mu.Unlock()
	m.journal.HardCrash()
	m.tcp.Stop()
	c.mu.Lock()
	c.dead = append(c.dead, m.tcp.Metrics())
	c.mu.Unlock()
}

func (c *cluster) node(p model.ProcID) *memberNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[p]
}

// registries returns every node registry, past incarnations included.
func (c *cluster) registries() []*metrics.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]*metrics.Registry(nil), c.dead...)
	for _, p := range c.procs {
		if m := c.nodes[p]; m != nil {
			out = append(out, m.tcp.Metrics())
		}
	}
	return out
}

// counters sums a counter over every node registry.
func (c *cluster) counter(name string) int64 {
	var n int64
	for _, r := range c.registries() {
		n += r.Get(name)
	}
	return n
}

// stop tears the deployment down and removes its data.
func (c *cluster) stop() {
	if c.gw != nil {
		c.gw.Close()
	}
	c.mu.Lock()
	nodes := c.nodes
	c.nodes = map[model.ProcID]*memberNode{}
	c.mu.Unlock()
	for _, m := range nodes {
		m.tcp.Stop()
		m.journal.Close()
	}
	os.RemoveAll(c.root)
}

// hosts reports the shards p holds a copy of (NoShard when unsharded).
func (c *cluster) hosts(p model.ProcID) []model.ShardID {
	if c.smap == nil {
		return []model.ShardID{model.NoShard}
	}
	return c.smap.Hosted(p)
}

// members is the copy set of shard s (every node when unsharded).
func (c *cluster) members(s model.ShardID) model.ProcSet {
	if c.smap == nil {
		return model.NewProcSet(c.procs...)
	}
	return c.smap.Members(s)
}

// shardOf maps an object to its shard (NoShard when unsharded).
func (c *cluster) shardOf(o model.ObjectID) model.ShardID {
	if c.smap == nil {
		return model.NoShard
	}
	return c.smap.ShardOf(o)
}

func freePorts(n int) ([]string, error) {
	out := make([]string, n)
	ls := make([]stdnet.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := range out {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		out[i] = l.Addr().String()
	}
	return out, nil
}
