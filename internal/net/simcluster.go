package net

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/sim"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// SimCluster runs a set of Handlers over a Topology on one discrete-event
// engine. Everything — message delivery, timers, failure injection, the
// workload — executes deterministically in virtual time.
type SimCluster struct {
	Engine *sim.Engine
	Topo   *Topology
	Reg    *metrics.Registry
	// Rec is the structured event recorder handed to every node via
	// Runtime.Tracer. Nil (the default) disables tracing at zero cost;
	// harnesses that want a trace install one before (or after) Start.
	Rec *trace.Recorder

	nodes    map[model.ProcID]Handler
	runtimes map[model.ProcID]*simRuntime

	// OnClientResult receives transaction results that nodes send to
	// model.NoProc. From identifies the coordinator.
	OnClientResult func(from model.ProcID, res wire.ClientResult)

	// DropInFlight, when true (the default), re-checks connectivity at
	// delivery time so messages in flight across a link that goes down
	// are lost — the adversarial interpretation of a partition.
	DropInFlight bool

	// Transcode, when set, is applied to every remote message at send
	// time and its result is what gets delivered. The golden codec
	// equivalence test uses it to route the deterministic scenarios
	// through a real wire codec round-trip: if an encode/decode pair
	// alters any message, the divergence shows up in the run's results.
	// Self-sends are exempt (they are local procedure calls and never
	// touch a wire).
	Transcode func(wire.Envelope) wire.Envelope

	// TraceEnabled turns Runtime.Logf into engine trace output.
	TraceEnabled bool
	TraceSink    func(string)

	started bool
}

// NewSimCluster creates a cluster over the topology with the given seed.
func NewSimCluster(topo *Topology, seed int64) *SimCluster {
	return &SimCluster{
		Engine:       sim.New(seed),
		Topo:         topo,
		Reg:          metrics.NewRegistry(),
		nodes:        make(map[model.ProcID]Handler),
		runtimes:     make(map[model.ProcID]*simRuntime),
		DropInFlight: true,
	}
}

// AddNode registers a handler as processor p. All nodes must be added
// before Start.
func (c *SimCluster) AddNode(p model.ProcID, h Handler) {
	if c.started {
		panic("net: AddNode after Start")
	}
	if _, dup := c.nodes[p]; dup {
		panic(fmt.Sprintf("net: duplicate node %v", p))
	}
	c.nodes[p] = h
	c.runtimes[p] = &simRuntime{
		c:   c,
		id:  p,
		rng: rand.New(rand.NewSource(int64(p)*7919 + 1)),
	}
}

// Node returns the handler registered as p (nil if none).
func (c *SimCluster) Node(p model.ProcID) Handler { return c.nodes[p] }

// RuntimeFor returns the runtime of node p, for harness hooks and
// white-box tests that invoke handler methods directly from scheduled
// events (always on the engine's goroutine).
func (c *SimCluster) RuntimeFor(p model.ProcID) Runtime { return c.runtimes[p] }

// Start initializes every node (in processor order, deterministically).
func (c *SimCluster) Start() {
	if c.started {
		panic("net: double Start")
	}
	c.started = true
	ids := make([]model.ProcID, 0, len(c.nodes))
	for p := range c.nodes {
		ids = append(ids, p)
	}
	// Sort without importing sort for a 3-line slice: insertion sort.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, p := range ids {
		h, rt := c.nodes[p], c.runtimes[p]
		c.Engine.After(0, "init", func() { h.Init(rt) })
	}
}

// Submit delivers a client transaction to processor p (its coordinator)
// at the given absolute virtual time (clamped to now if already past).
func (c *SimCluster) Submit(at time.Duration, p model.ProcID, t wire.ClientTxn) {
	h, ok := c.nodes[p]
	if !ok {
		panic(fmt.Sprintf("net: submit to unknown node %v", p))
	}
	c.Engine.At(at, "client-txn", func() {
		rt := c.runtimes[p]
		rt.cur = model.TraceCtx{}
		h.OnMessage(rt, model.NoProc, t)
	})
}

// At schedules an arbitrary harness action (e.g. a topology change) at an
// absolute virtual time.
func (c *SimCluster) At(t time.Duration, label string, fn func()) {
	c.Engine.At(t, label, fn)
}

// Run advances virtual time to the given instant.
func (c *SimCluster) Run(until time.Duration) { c.Engine.Run(until) }

// deliver routes one message. Self-sends are local procedure calls: they
// are delivered on the next event tick, never fail, and do not count as
// network messages (reading one's own copy is free in the paper's cost
// model).
func (c *SimCluster) deliver(from, to model.ProcID, m wire.Message, ctx model.TraceCtx) {
	if from == to {
		if h, ok := c.nodes[to]; ok {
			c.Engine.After(0, "self-"+wire.Kind(m), func() {
				rt := c.runtimes[to]
				rt.cur = ctx
				h.OnMessage(rt, from, m)
			})
		}
		return
	}
	if c.Transcode != nil {
		env := c.Transcode(wire.Envelope{From: from, To: to, Msg: m, Ctx: ctx})
		m, ctx = env.Msg, env.Ctx
	}
	kind := wire.Kind(m)
	c.Reg.Inc(metrics.CMsgSent, 1)
	c.Reg.Inc(metrics.CMsgSent+"."+kind, 1)
	c.Rec.Record(trace.Event{At: c.Engine.Now(), Proc: from, Kind: trace.EvMsgSend, Peer: to, Msg: kind})
	if to == model.NoProc {
		// Client sink: local, reliable.
		if c.OnClientResult != nil {
			if res, ok := m.(wire.ClientResult); ok {
				res := res
				c.Engine.After(0, "client-result", func() { c.OnClientResult(from, res) })
			}
		}
		return
	}
	h, ok := c.nodes[to]
	if !ok {
		c.drop(from, to, kind)
		return
	}
	if !c.Topo.Connected(from, to) {
		c.drop(from, to, kind)
		return
	}
	if p := c.Topo.DropProb(); p > 0 && c.Engine.Rand().Float64() < p {
		c.drop(from, to, kind)
		return
	}
	lat := c.Topo.Latency(from, to)
	c.Engine.After(lat, "deliver-"+kind, func() {
		if c.DropInFlight && !c.Topo.Connected(from, to) {
			c.drop(from, to, kind)
			return
		}
		c.Reg.Inc(metrics.CMsgDelivered, 1)
		c.Reg.Inc(metrics.CMsgDelivered+"."+kind, 1)
		c.Rec.Record(trace.Event{At: c.Engine.Now(), Proc: to, Kind: trace.EvMsgRecv, Peer: from, Msg: kind})
		rt := c.runtimes[to]
		rt.cur = ctx
		h.OnMessage(rt, from, m)
	})
}

// drop accounts one lost message in the metrics and the trace.
func (c *SimCluster) drop(from, to model.ProcID, kind string) {
	c.Reg.Inc(metrics.CMsgDropped, 1)
	c.Rec.Record(trace.Event{At: c.Engine.Now(), Proc: from, Kind: trace.EvMsgDrop, Peer: to, Msg: kind})
}

// simRuntime implements Runtime on top of the cluster's engine.
type simRuntime struct {
	c       *SimCluster
	id      model.ProcID
	rng     *rand.Rand
	nextTID TimerID
	timers  map[TimerID]sim.Handle
	// cur is the trace context of the event currently being handled; the
	// cluster sets it before every OnMessage and zeroes it for timers and
	// client submits. Safe without locking: the engine runs one event at
	// a time.
	cur model.TraceCtx
}

var _ Runtime = (*simRuntime)(nil)

func (r *simRuntime) ID() model.ProcID      { return r.id }
func (r *simRuntime) Procs() []model.ProcID { return r.c.Topo.Procs() }
func (r *simRuntime) Now() time.Duration    { return r.c.Engine.Now() }
func (r *simRuntime) Rand() *rand.Rand      { return r.rng }

func (r *simRuntime) Metrics() *metrics.Registry { return r.c.Reg }

func (r *simRuntime) Tracer() *trace.Recorder { return r.c.Rec }

func (r *simRuntime) Send(to model.ProcID, m wire.Message) {
	r.c.deliver(r.id, to, m, r.cur)
}

func (r *simRuntime) SendCtx(to model.ProcID, m wire.Message, ctx model.TraceCtx) {
	r.c.deliver(r.id, to, m, ctx)
}

func (r *simRuntime) TraceCtx() model.TraceCtx { return r.cur }

func (r *simRuntime) SetTimer(d time.Duration, key any) TimerID {
	if r.timers == nil {
		r.timers = make(map[TimerID]sim.Handle)
	}
	r.nextTID++
	id := r.nextTID
	h := r.c.nodes[r.id]
	handle := r.c.Engine.After(d, fmt.Sprintf("timer-%v-%v", r.id, key), func() {
		delete(r.timers, id)
		r.cur = model.TraceCtx{}
		h.OnTimer(r, key)
	})
	r.timers[id] = handle
	return id
}

func (r *simRuntime) CancelTimer(id TimerID) {
	if h, ok := r.timers[id]; ok {
		h.Cancel()
		delete(r.timers, id)
	}
}

func (r *simRuntime) Distance(to model.ProcID) time.Duration {
	return r.c.Topo.Latency(r.id, to)
}

// Logf routes protocol log lines through the structured recorder (as
// EvLog events) and, when the legacy text trace is on, through the
// human-readable sink. With both off the format work is skipped, so
// benchmarks stay silent and allocation-free.
func (r *simRuntime) Logf(format string, args ...any) {
	c := r.c
	structured := c.Rec.Enabled()
	if !c.TraceEnabled && !structured {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if structured {
		c.Rec.Record(trace.Event{At: c.Engine.Now(), Proc: r.id, Kind: trace.EvLog, Msg: msg})
	}
	if !c.TraceEnabled {
		return
	}
	line := fmt.Sprintf("[%8.3fms %v] %s", float64(c.Engine.Now())/float64(time.Millisecond), r.id, msg)
	if c.TraceSink != nil {
		c.TraceSink(line)
	} else {
		fmt.Println(line)
	}
}
