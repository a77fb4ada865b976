package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/wire"
)

// This file holds the wrappers the benchmark puts around the seams it
// already hands to the program: net.Handler and net.Runtime per node,
// durable.Journal per node and the gateway's http.Handler. Each forwards
// every call unchanged; in a traced run it also times the call and
// records what passed through. Wrapping may change timing, never the
// path the program takes.

// loopCall is a timer key the handler wrapper consumes itself: it runs
// fn on the node's event loop, where protocol state may be read.
type loopCall struct{ fn func() }

// handlerWrap wraps a node's protocol handler.
type handlerWrap struct {
	inner vnet.Handler
	lt    *nodeTrace // nil in untraced runs
	rt    *runtimeWrap
	// probed is the last probe the node received, from any peer in any
	// shard; the kill cycles time their kills by it.
	probed atomic.Pointer[probeMark]
	sent   *delivered
	// open holds, per tag, the client transactions with increment steps
	// this node has received and not yet answered. Event loop only.
	open map[uint64]openTxn
}

// openTxn is a client transaction awaiting its answer; the gateway
// resends a transaction under the same tag, so n counts the copies.
type openTxn struct {
	ops []wire.Op
	n   int
}

func newHandlerWrap(h vnet.Handler, lt *nodeTrace, sent *delivered) *handlerWrap {
	return &handlerWrap{inner: h, lt: lt, sent: sent, open: map[uint64]openTxn{}}
}

// probeMark is when a probe arrived and the shard it probes (NoShard
// when unsharded).
type probeMark struct {
	at    time.Time
	shard model.ShardID
}

// runtime returns the Runtime handed to the inner handler: one stable
// wrapper around the engine's, which sees the node's answers to client
// transactions and, traced, every message it sends.
func (h *handlerWrap) runtime(rt vnet.Runtime) vnet.Runtime {
	if h.rt == nil || h.rt.Runtime != rt {
		h.rt = &runtimeWrap{Runtime: rt, lt: h.lt, h: h}
	}
	return h.rt
}

// received counts the increment steps of a client transaction as
// delivered and holds it open until the node answers it.
func (h *handlerWrap) received(ct wire.ClientTxn) {
	if !h.sent.note(ct.Ops, 1) {
		return
	}
	o := h.open[ct.Tag]
	o.ops, o.n = ct.Ops, o.n+1
	h.open[ct.Tag] = o
}

// answered closes an open client transaction. An aborted or denied one
// applied nothing, so its steps no longer count as delivered; one left
// unanswered (the node was killed) keeps counting, as it may have
// committed.
func (h *handlerWrap) answered(to model.ProcID, m wire.Message) {
	res, ok := m.(wire.ClientResult)
	if !ok || to != model.NoProc {
		return
	}
	o, ok := h.open[res.Tag]
	if !ok {
		return
	}
	if o.n--; o.n == 0 {
		delete(h.open, res.Tag)
	} else {
		h.open[res.Tag] = o
	}
	if !res.Committed {
		h.sent.note(o.ops, -1)
	}
}

func (h *handlerWrap) Init(rt vnet.Runtime) {
	if h.lt == nil {
		h.inner.Init(h.runtime(rt))
		return
	}
	began := time.Now()
	h.inner.Init(h.runtime(rt))
	h.lt.handled(began, time.Now())
}

func (h *handlerWrap) OnMessage(rt vnet.Runtime, from model.ProcID, m wire.Message) {
	if sh, ok := probeShard(m); ok {
		h.probed.Store(&probeMark{at: time.Now(), shard: sh})
	}
	if ct, ok := m.(wire.ClientTxn); ok && from == model.NoProc {
		h.received(ct)
	}
	if h.lt == nil {
		h.inner.OnMessage(h.runtime(rt), from, m)
		return
	}
	began := time.Now()
	h.lt.inbound(began, from, m)
	h.inner.OnMessage(h.runtime(rt), from, m)
	h.lt.handled(began, time.Now())
}

// delivered counts, per object, the increments handed to the nodes in
// client transactions, less those the nodes answered as aborted or
// denied. The gateway's contract is at-least-once: after a lost or late
// answer it submits the same operations again, to another node, and the
// first attempt may still commit. What was delivered and not refused,
// not what the generator sent, bounds what the copies can hold.
type delivered struct {
	mu       sync.Mutex
	pos, neg map[model.ObjectID]int64
}

func newDelivered() *delivered {
	return &delivered{pos: map[model.ObjectID]int64{}, neg: map[model.ObjectID]int64{}}
}

// note adds sign times the read-modify-write steps of ops
// (wire.IncrementOps and wire.TransferOps shapes) and reports whether
// there were any; event loops call it concurrently.
func (d *delivered) note(ops []wire.Op, sign int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	steps := false
	for _, o := range ops {
		if o.Kind != wire.OpWrite || !o.UseSrc || o.Src != o.Obj {
			continue
		}
		steps = true
		if o.Const > 0 {
			d.pos[o.Obj] += sign * o.Const
		} else {
			d.neg[o.Obj] -= sign * o.Const
		}
	}
	return steps
}

func (d *delivered) get(obj model.ObjectID) (pos, neg int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pos[obj], d.neg[obj]
}

// probeShard reports whether m is a §5 probe, bare or framed for a
// shard, and the shard it probes.
func probeShard(m wire.Message) (model.ShardID, bool) {
	sh := model.NoShard
	if sm, ok := m.(wire.ShardMsg); ok {
		sh, m = sm.Shard, sm.Msg
	}
	_, ok := m.(wire.Probe)
	return sh, ok
}

func (h *handlerWrap) OnTimer(rt vnet.Runtime, key any) {
	if k, ok := key.(loopCall); ok {
		k.fn()
		return
	}
	if h.lt == nil {
		h.inner.OnTimer(h.runtime(rt), key)
		return
	}
	began := time.Now()
	h.inner.OnTimer(h.runtime(rt), key)
	h.lt.handled(began, time.Now())
}

// cores lists the protocol instances behind the wrapper.
func (h *handlerWrap) cores() []*core.Node {
	switch x := h.inner.(type) {
	case *core.Node:
		return []*core.Node{x}
	case *shard.Router:
		var out []*core.Node
		for _, s := range x.Hosted() {
			out = append(out, x.Node(s))
		}
		return out
	}
	return nil
}

// copyVer returns the version of the node's own copy of obj, and
// whether it holds one. Event loop only.
func (h *handlerWrap) copyVer(obj model.ObjectID) (model.Version, bool) {
	for _, n := range h.cores() {
		if n.Store.Has(obj) {
			return n.Store.Get(obj).Ver, true
		}
	}
	return model.Version{}, false
}

// assigned reports whether every hosted instance sits in a partition.
// Event loop only.
func (h *handlerWrap) assigned() bool {
	for _, n := range h.cores() {
		if !n.Assigned() {
			return false
		}
	}
	return true
}

// refreshing reports whether any hosted instance still holds objects
// locked for rule R5. Event loop only.
func (h *handlerWrap) refreshing() bool {
	for _, n := range h.cores() {
		if n.Refreshing() {
			return true
		}
	}
	return false
}

// busyTxns counts coordinator and participant transactions in flight.
// Event loop only.
func (h *handlerWrap) busyTxns() int {
	switch x := h.inner.(type) {
	case *core.Node:
		return x.ActiveTxns() + x.PreparedTxns()
	case *shard.Router:
		n := x.Coord().ActiveTxns() + x.Coord().PreparedTxns()
		for _, s := range x.Hosted() {
			n += x.Node(s).ActiveTxns() + x.Node(s).PreparedTxns()
		}
		return n
	}
	return 0
}

// onLoop runs fn on the node's event loop and waits for it, or gives
// up after timeout (the node may have stopped).
func onLoop(tcp *vnet.TCPNode, timeout time.Duration, fn func()) bool {
	done := make(chan struct{})
	tcp.SetTimer(0, loopCall{fn: func() { fn(); close(done) }})
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// runtimeWrap forwards every Runtime method; Send and SendCtx also
// close answered client transactions and, traced, size and count the
// message.
type runtimeWrap struct {
	vnet.Runtime
	lt *nodeTrace // nil in untraced runs
	h  *handlerWrap
}

func (r *runtimeWrap) Send(to model.ProcID, m wire.Message) {
	r.h.answered(to, m)
	if r.lt != nil {
		r.lt.outbound(r.Runtime.ID(), to, m, r.Runtime.TraceCtx())
	}
	r.Runtime.Send(to, m)
}

func (r *runtimeWrap) SendCtx(to model.ProcID, m wire.Message, ctx model.TraceCtx) {
	r.h.answered(to, m)
	if r.lt != nil {
		r.lt.outbound(r.Runtime.ID(), to, m, ctx)
	}
	r.Runtime.SendCtx(to, m, ctx)
}

// journalWrap forwards every durable.Journal method to a FileJournal,
// timing Sync and the LogSince capability the store type-asserts.
type journalWrap struct {
	j  *durable.FileJournal
	lt *nodeTrace
}

func newJournalWrap(j *durable.FileJournal, lt *nodeTrace) *journalWrap {
	return &journalWrap{j: j, lt: lt}
}

func (w *journalWrap) MaxID(v model.VPID) { w.j.MaxID(v) }
func (w *journalWrap) Apply(obj model.ObjectID, val model.Value, ver model.Version) {
	w.j.Apply(obj, val, ver)
}
func (w *journalWrap) Stage(txn model.TxnID, obj model.ObjectID, sw durable.StagedWrite) {
	w.j.Stage(txn, obj, sw)
}
func (w *journalWrap) DropStage(txn model.TxnID, obj model.ObjectID) { w.j.DropStage(txn, obj) }
func (w *journalWrap) Decide(txn model.TxnID, commit bool, pending []model.ProcID, shards []model.ShardID) {
	w.j.Decide(txn, commit, pending, shards)
}
func (w *journalWrap) DecideDone(txn model.TxnID) { w.j.DecideDone(txn) }

func (w *journalWrap) Sync() error {
	began := time.Now()
	err := w.j.Sync()
	w.lt.synced(began, time.Now())
	return err
}

// LogSince forwards the §6 catch-up capability internal/store looks for
// on its journal; without it catch-up would silently fall back to full
// copies and the wrapper would change the program's path.
func (w *journalWrap) LogSince(obj model.ObjectID, since model.Version) ([]durable.LogRec, bool) {
	began := time.Now()
	recs, ok := w.j.LogSince(obj, since)
	w.lt.loggedSince(began, time.Now())
	return recs, ok
}

// gatewayWrap times the gateway's ServeHTTP.
type gatewayWrap struct {
	inner http.Handler
	gt    *gatewayTrace
}

func (g *gatewayWrap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	began := time.Now()
	g.inner.ServeHTTP(w, r)
	g.gt.served(r.Method == http.MethodGet, began, time.Now())
}
