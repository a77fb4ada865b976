package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// span is one timed call through a wrapper. Spans of one transaction
// share its id: a node.prepare span's parent is the node.txn span of
// the same transaction. Across the gateway → node boundary no id
// exists, so those spans have no parent and time is attributed by
// per-commit means.
type span struct {
	Name   string       `json:"name"`
	ID     uint64       `json:"id"`
	Parent uint64       `json:"parent,omitempty"`
	Proc   model.ProcID `json:"proc,omitempty"`
	Start  int64        `json:"start_ns"`
	End    int64        `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted and
// dropped.
const maxSpans = 1 << 18

// tracer owns every per-layer record of a traced run. Samples are kept
// only while on is set and the window is open (the measured phases).
type tracer struct {
	start  time.Time
	on     atomic.Bool
	window atomic.Bool

	ids atomic.Uint64 // ids of spans outside a transaction (even)

	mu      sync.Mutex
	nodes   map[model.ProcID]*nodeTrace
	spans   []span
	dropped int64
	gw      *gatewayTrace
	shardOf func(model.ObjectID) model.ShardID
}

func newTracer() *tracer {
	t := &tracer{start: time.Now(), nodes: map[model.ProcID]*nodeTrace{}}
	t.on.Store(true)
	t.gw = &gatewayTrace{t: t}
	return t
}

func (t *tracer) setOn(v bool) { t.on.Store(v) }

// bind attaches the tracer to the cluster that carries the load.
func (t *tracer) bind(c *cluster) { t.shardOf = c.shardOf }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.start).Nanoseconds() }

// nextID returns a fresh even span id; transaction span ids are odd.
func (t *tracer) nextID() uint64 { return t.ids.Add(1) << 1 }

func (t *tracer) addSpan(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// layer returns p's node record, shared by every incarnation of p; nil
// on a nil tracer, which leaves the wrappers forwarding only.
func (t *tracer) layer(p model.ProcID) *nodeTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := t.nodes[p]
	if lt == nil {
		lt = &nodeTrace{t: t, p: p, enc: wire.NewBinaryEncoder(),
			txnStart: map[uint64]time.Time{}, prep: map[model.TxnID]*prepState{}}
		t.nodes[p] = lt
	}
	return lt
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// txnSpanID derives a span id from a transaction id, so spans of one
// transaction link without a lookup.
func txnSpanID(id model.TxnID) uint64 {
	h := fnv.New64a()
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(id.Start))
	binary.LittleEndian.PutUint64(b[8:], uint64(id.P))
	binary.LittleEndian.PutUint64(b[16:], id.Seq)
	h.Write(b[:])
	return h.Sum64() | 1
}

// layerCounts are the cumulative totals a node record keeps; windows
// subtract two snapshots.
type layerCounts struct {
	busyNS     int64
	bytes      int64
	catchupB   int64 // of the bytes, rule R5 catch-up and refresh answers
	encodeNS   int64
	syncs      int64
	logsinceNS int64
	logsinces  int64
}

func (a layerCounts) sub(b layerCounts) layerCounts {
	return layerCounts{a.busyNS - b.busyNS, a.bytes - b.bytes, a.catchupB - b.catchupB,
		a.encodeNS - b.encodeNS, a.syncs - b.syncs, a.logsinceNS - b.logsinceNS, a.logsinces - b.logsinces}
}

type prepState struct {
	start time.Time
	want  int
}

// nodeTrace is the per-node record the Handler, Runtime and Journal
// wrappers write. Handler calls are serialized per node, but Sync and
// the final reads may come from elsewhere, hence the mutex.
type nodeTrace struct {
	t *tracer
	p model.ProcID

	mu       sync.Mutex
	n        layerCounts
	enc      *wire.BinaryEncoder
	txnStart map[uint64]time.Time
	prep     map[model.TxnID]*prepState
	// txnReadMS and txnWriteMS split client transactions by whether
	// they committed writes.
	txnReadMS, txnWriteMS []float64
	prepMS                []float64
	syncMS                []float64
	// cross counts committed coordinator transactions by how many
	// shards they touched (sharded deployments only).
	txns, crossTxns int64
}

func (lt *nodeTrace) active() bool { return lt != nil && lt.t.on.Load() }

func (lt *nodeTrace) handled(began, end time.Time) {
	if !lt.active() {
		return
	}
	lt.mu.Lock()
	lt.n.busyNS += end.Sub(began).Nanoseconds()
	lt.mu.Unlock()
}

func unshard(m wire.Message) wire.Message {
	if sm, ok := m.(wire.ShardMsg); ok {
		return sm.Msg
	}
	return m
}

// inbound notes client transactions arriving at their coordinator and
// votes arriving for a prepare round.
func (lt *nodeTrace) inbound(at time.Time, from model.ProcID, m wire.Message) {
	if !lt.active() {
		return
	}
	switch msg := unshard(m).(type) {
	case wire.ClientTxn:
		if from == model.NoProc {
			lt.mu.Lock()
			lt.txnStart[msg.Tag] = at
			lt.mu.Unlock()
		}
	case wire.Vote:
		lt.mu.Lock()
		if ps := lt.prep[msg.Txn]; ps != nil {
			ps.want--
			if ps.want <= 0 {
				delete(lt.prep, msg.Txn)
				if lt.t.window.Load() {
					lt.prepMS = append(lt.prepMS, msBetween(ps.start, at))
				}
				lt.t.addSpan(span{Name: "node.prepare", ID: lt.t.nextID(),
					Parent: txnSpanID(msg.Txn), Proc: lt.p, Start: lt.t.ns(ps.start), End: lt.t.ns(at)})
			}
		}
		lt.mu.Unlock()
	}
}

// outbound sizes and times the encoding of every message leaving the
// node (self-sends are local and free, as in the transport), starts
// prepare rounds and closes client transactions.
func (lt *nodeTrace) outbound(from, to model.ProcID, m wire.Message, ctx model.TraceCtx) {
	if !lt.active() {
		return
	}
	now := time.Now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if to != from {
		env := wire.Envelope{From: from, To: to, Msg: m, Ctx: ctx}
		began := time.Now()
		b, err := lt.enc.Encode(&env)
		lt.n.encodeNS += time.Since(began).Nanoseconds()
		if err == nil {
			lt.n.bytes += int64(len(b))
			switch unshard(m).(type) {
			case wire.CatchupResp, wire.RecoverLogResp, wire.RecoverReadResp:
				lt.n.catchupB += int64(len(b))
			}
		}
	}
	switch msg := unshard(m).(type) {
	case wire.Prepare:
		ps := lt.prep[msg.Txn]
		if ps == nil {
			ps = &prepState{start: now}
			lt.prep[msg.Txn] = ps
		}
		ps.want++
	case wire.ClientResult:
		if to != model.NoProc {
			return
		}
		start, ok := lt.txnStart[msg.Tag]
		if !ok {
			return
		}
		delete(lt.txnStart, msg.Tag)
		if lt.t.window.Load() {
			if len(msg.Writes) > 0 {
				lt.txnWriteMS = append(lt.txnWriteMS, msBetween(start, now))
			} else {
				lt.txnReadMS = append(lt.txnReadMS, msBetween(start, now))
			}
			if msg.Committed && len(msg.Writes) > 0 {
				lt.txns++
				if lt.t.shardOf != nil && spansShards(lt.t.shardOf, msg.Writes) {
					lt.crossTxns++
				}
			}
		}
		lt.t.addSpan(span{Name: "node.txn", ID: txnSpanID(msg.Txn), Proc: lt.p,
			Start: lt.t.ns(start), End: lt.t.ns(now)})
	}
}

func spansShards(shardOf func(model.ObjectID) model.ShardID, ws []wire.ObjVal) bool {
	first := shardOf(ws[0].Obj)
	for _, w := range ws[1:] {
		if shardOf(w.Obj) != first {
			return true
		}
	}
	return false
}

func (lt *nodeTrace) synced(began, end time.Time) {
	if !lt.active() {
		return
	}
	lt.mu.Lock()
	lt.n.syncs++
	if lt.t.window.Load() {
		lt.syncMS = append(lt.syncMS, msBetween(began, end))
	}
	lt.mu.Unlock()
	lt.t.addSpan(span{Name: "durable.sync", ID: lt.t.nextID(), Proc: lt.p,
		Start: lt.t.ns(began), End: lt.t.ns(end)})
}

func (lt *nodeTrace) loggedSince(began, end time.Time) {
	if !lt.active() {
		return
	}
	lt.mu.Lock()
	lt.n.logsinces++
	lt.n.logsinceNS += end.Sub(began).Nanoseconds()
	lt.mu.Unlock()
	lt.t.addSpan(span{Name: "durable.logsince", ID: lt.t.nextID(), Proc: lt.p,
		Start: lt.t.ns(began), End: lt.t.ns(end)})
}

func (lt *nodeTrace) counts() layerCounts {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.n
}

// gatewayTrace is the gateway handler wrapper's record.
type gatewayTrace struct {
	t       *tracer
	mu      sync.Mutex
	readMS  []float64
	writeMS []float64
}

func (g *gatewayTrace) served(read bool, began, end time.Time) {
	if !g.t.on.Load() {
		return
	}
	ms := msBetween(began, end)
	g.mu.Lock()
	if g.t.window.Load() {
		if read {
			g.readMS = append(g.readMS, ms)
		} else {
			g.writeMS = append(g.writeMS, ms)
		}
	}
	g.mu.Unlock()
	g.t.addSpan(span{Name: "gateway.serve", ID: g.t.nextID(), Start: g.t.ns(began), End: g.t.ns(end)})
}
