package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

func TestSameSeedSameSchedule(t *testing.T) {
	for _, w := range workloads {
		objs := workload.Objects(w.Objects)
		lengths := phaseLengths(2)
		a := buildSchedule(7, w, objs, lengths)
		b := buildSchedule(7, w, objs, lengths)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w.Name)
		}
		if c := buildSchedule(8, w, objs, lengths); reflect.DeepEqual(a.paced, c.paced) {
			t.Errorf("%s: seeds 7 and 8 gave the same paced requests", w.Name)
		}
	}
}

func TestScheduleFollowsMix(t *testing.T) {
	w, _ := findWorkload("sharded-transfer")
	ops := genOps(3, w, workload.Objects(w.Objects), 20000)
	var reads, transfers int
	for _, o := range ops {
		switch o.kind {
		case opRead:
			reads++
		case opTransfer:
			transfers++
			if o.a == o.b {
				t.Fatalf("transfer from %d to itself", o.a)
			}
		}
	}
	if f := float64(reads) / float64(len(ops)); f < 0.48 || f > 0.52 {
		t.Errorf("read share %.3f, want 0.5", f)
	}
	if f := float64(transfers) / float64(len(ops)-reads); f < 0.18 || f > 0.22 {
		t.Errorf("transfer share of writes %.3f, want 0.2", f)
	}
}

// BENCHMARK.json carries each workload's parameters and reason; they
// must be the ones the code runs.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.why() {
			t.Errorf("workload %d: BENCHMARK.json has %q: %q, code has %q: %q", i, got.Name, got.Why, w.Name, w.why())
		}
	}
	e2e := endToEnd([]float64{1}, &phaseResult{}, &cycleResult{}, 1)
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("run reports %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if _, ok := e2e[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is not reported", m.Name)
		}
	}
	layers := perLayer(newTracer(), &windowSnap{}, workloads[0], &phaseResult{}, &phaseResult{},
		&phaseResult{}, &cycleResult{}, nil, 1, 0)
	if len(layers) != len(spec.PerLayer) {
		t.Errorf("run reports %d per-layer metrics, BENCHMARK.json lists %d", len(layers), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if _, ok := layers[m.Name]; !ok {
			t.Errorf("per-layer metric %s is not reported", m.Name)
		}
	}
}

// fakeRuntime records which Runtime methods reached it.
type fakeRuntime struct{ calls map[string]int }

func (f *fakeRuntime) hit(m string)                    { f.calls[m]++ }
func (f *fakeRuntime) ID() model.ProcID                { f.hit("ID"); return 1 }
func (f *fakeRuntime) Procs() []model.ProcID           { f.hit("Procs"); return []model.ProcID{1, 2} }
func (f *fakeRuntime) Now() time.Duration              { f.hit("Now"); return 0 }
func (f *fakeRuntime) Send(model.ProcID, wire.Message) { f.hit("Send") }
func (f *fakeRuntime) SendCtx(model.ProcID, wire.Message, model.TraceCtx) {
	f.hit("SendCtx")
}
func (f *fakeRuntime) TraceCtx() model.TraceCtx { f.hit("TraceCtx"); return model.TraceCtx{} }
func (f *fakeRuntime) SetTimer(time.Duration, any) vnet.TimerID {
	f.hit("SetTimer")
	return 0
}
func (f *fakeRuntime) CancelTimer(vnet.TimerID)            { f.hit("CancelTimer") }
func (f *fakeRuntime) Distance(model.ProcID) time.Duration { f.hit("Distance"); return 0 }
func (f *fakeRuntime) Rand() *rand.Rand                    { f.hit("Rand"); return nil }
func (f *fakeRuntime) Metrics() *metrics.Registry          { f.hit("Metrics"); return nil }
func (f *fakeRuntime) Tracer() *trace.Recorder             { f.hit("Tracer"); return nil }
func (f *fakeRuntime) Logf(string, ...any)                 { f.hit("Logf") }

// fakeHandler calls every Runtime method it is handed.
type fakeHandler struct {
	inits, msgs, timers int
	lastKey             any
}

func useRuntime(rt vnet.Runtime) {
	rt.ID()
	rt.Procs()
	rt.Now()
	rt.Send(2, wire.Probe{})
	rt.SendCtx(2, wire.Probe{}, model.TraceCtx{})
	rt.TraceCtx()
	rt.CancelTimer(rt.SetTimer(time.Second, "k"))
	rt.Distance(2)
	rt.Rand()
	rt.Metrics()
	rt.Tracer()
	rt.Logf("x")
}

func (h *fakeHandler) Init(rt vnet.Runtime) { h.inits++; useRuntime(rt) }
func (h *fakeHandler) OnMessage(rt vnet.Runtime, _ model.ProcID, _ wire.Message) {
	h.msgs++
	useRuntime(rt)
}
func (h *fakeHandler) OnTimer(rt vnet.Runtime, key any) { h.timers++; h.lastKey = key; useRuntime(rt) }

func TestWrappersForwardEveryMethod(t *testing.T) {
	const runtimeMethods = 13
	if n := reflect.TypeOf((*vnet.Runtime)(nil)).Elem().NumMethod(); n != runtimeMethods {
		t.Fatalf("net.Runtime has %d methods, the fake covers %d", n, runtimeMethods)
	}
	for _, traced := range []bool{false, true} {
		var lt *nodeTrace
		if traced {
			lt = newTracer().layer(1)
		}
		h := &fakeHandler{}
		w := newHandlerWrap(h, lt, newDelivered())
		rt := &fakeRuntime{calls: map[string]int{}}
		w.Init(rt)
		w.OnMessage(rt, 2, wire.Probe{})
		w.OnTimer(rt, "key")
		if h.inits != 1 || h.msgs != 1 || h.timers != 1 || h.lastKey != "key" {
			t.Errorf("traced=%v: handler saw %d inits, %d messages, %d timers (key %v)",
				traced, h.inits, h.msgs, h.timers, h.lastKey)
		}
		// Three handler calls, each using every method once.
		for _, m := range []string{"Procs", "Now", "Send", "SendCtx", "SetTimer", "CancelTimer",
			"Distance", "Rand", "Metrics", "Tracer", "Logf"} {
			if rt.calls[m] != 3 {
				t.Errorf("traced=%v: %s reached the engine %d times, want 3", traced, m, rt.calls[m])
			}
		}
		if len(rt.calls) != runtimeMethods {
			t.Errorf("traced=%v: %d of %d runtime methods reached the engine: %v",
				traced, len(rt.calls), runtimeMethods, rt.calls)
		}
		ran := false
		w.OnTimer(rt, loopCall{fn: func() { ran = true }})
		if !ran || h.timers != 1 {
			t.Errorf("traced=%v: loop call ran=%v and reached the handler %d times", traced, ran, h.timers-1)
		}
	}
}

// The store type-asserts its journal for LogSince; the wrapper must
// keep that capability and its answers.
func TestJournalWrapForwardsLogSince(t *testing.T) {
	var _ durable.Journal = (*journalWrap)(nil)
	var _ interface {
		LogSince(model.ObjectID, model.Version) ([]durable.LogRec, bool)
	} = (*journalWrap)(nil)

	_, j, err := durable.OpenOptions(t.TempDir(), durable.Options{SegmentBytes: 256, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	w := newJournalWrap(j, newTracer().layer(1))
	for i := uint64(1); i <= 40; i++ {
		w.Apply("x", model.Value(i), model.Version{Date: model.VPID{N: 1, P: 1}, Ctr: i})
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	since := model.Version{Date: model.VPID{N: 1, P: 1}, Ctr: 35}
	want, wantOK := j.LogSince("x", since)
	got, gotOK := w.LogSince("x", since)
	if !wantOK || gotOK != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapped LogSince = %v, %v; journal says %v, %v", got, gotOK, want, wantOK)
	}
	if c := w.lt.counts(); c.logsinces != 1 || c.syncs != 40 {
		t.Errorf("wrapper counted %d LogSince calls and %d syncs, want 1 and 40", c.logsinces, c.syncs)
	}
}

// catchupCounters runs one kill -9 cycle on a small rejoin cluster and
// returns the counters that show which §6 path the catch-up took.
func catchupCounters(t *testing.T, traced bool) (scans, fullReads, catchupWrites int64) {
	t.Helper()
	w := &workloadSpec{Name: "rejoin-test", Nodes: 3, Shards: 1, Objects: 8, SegmentBytes: 16 << 10}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	c, _, err := bootReady(w, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	d := &loadgen{h: c.gw.Handler(), objs: c.objs, led: newLedger(w.Objects)}
	if tr != nil {
		d.h = &gatewayWrap{inner: c.gw.Handler(), gt: tr.gw}
	}
	write := func(obj int32, n int) {
		s := &session{marks: map[int32]model.Version{}}
		for i := 0; i < n; i++ {
			if out, _ := d.do(s, op{kind: opIncr, a: obj}); out != committed {
				t.Fatalf("increment %d of o%d: outcome %d", i, obj, out)
			}
		}
	}
	// Enough history for the journal to snapshot and retain a tail,
	// then writes the victim misses: more than LogCap on o0, so the
	// survivors must serve them from their journals.
	for obj := int32(1); obj < 8; obj++ {
		write(obj, 60)
	}
	time.Sleep(50 * time.Millisecond)
	c.kill(killVictim)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.ev.wait(ctx, func(st map[memberKey]memberState) bool { return c.settled(st, killVictim) }); err != nil {
		t.Fatal(err)
	}
	write(0, logCap+40)
	if err := c.start(killVictim, true); err != nil {
		t.Fatal(err)
	}
	if err := c.ev.wait(ctx, func(st map[memberKey]memberState) bool { return c.settled(st, model.NoProc) }); err != nil {
		t.Fatal(err)
	}
	if _, err := waitRefreshed(c.node(killVictim), time.Now().Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if chk := checkRun(c, d.led); len(chk.violations) > 0 {
		t.Fatalf("violations: %v", chk.violations)
	}
	return c.counter(metrics.CJournalCatchupScans), c.counter(metrics.CRefreshReads), c.counter(metrics.CCatchupWrites)
}

// Wrapping may change timing only: the same cycle takes the same §6
// path traced and untraced. Every object refreshes from the log, the
// hot one from the survivors' journals, none by full copy. (How many
// scans serve it is timing: a refresh restarted by a second view
// change asks again.)
func TestTracedAndUntracedRejoinAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two clusters")
	}
	s0, r0, c0 := catchupCounters(t, false)
	s1, r1, c1 := catchupCounters(t, true)
	t.Logf("untraced: %d journal scans, %d full reads, %d caught-up writes; traced: %d, %d, %d", s0, r0, c0, s1, r1, c1)
	if r0 != r1 || (s0 == 0) != (s1 == 0) {
		t.Errorf("untraced: %d journal catch-up scans, %d full refresh reads; traced: %d, %d", s0, r0, s1, r1)
	}
	if s0 == 0 || r0 != 0 || c0 < logCap || c1 < logCap {
		t.Errorf("catch-up did not go through the journals: %d scans, %d full reads, %d and %d caught-up writes",
			s0, r0, c0, c1)
	}
}

// answerHandler answers every client transaction with the given outcome.
type answerHandler struct{ commit bool }

func (h *answerHandler) Init(vnet.Runtime) {}
func (h *answerHandler) OnMessage(rt vnet.Runtime, _ model.ProcID, m wire.Message) {
	if ct, ok := m.(wire.ClientTxn); ok {
		rt.Send(model.NoProc, wire.ClientResult{Tag: ct.Tag, Committed: h.commit})
	}
}
func (h *answerHandler) OnTimer(vnet.Runtime, any) {}

// An attempt the node answered as aborted applied nothing and leaves
// the delivered count; a committed one, and one the node never
// answered, stay in it.
func TestDeliveredDropsRefusedAttempts(t *testing.T) {
	incr := wire.ClientTxn{Tag: 7, Ops: wire.IncrementOps("x", 1)}
	for _, c := range []struct {
		commit, answer bool
		want           int64
	}{{false, true, 0}, {true, true, 2}, {false, false, 2}} {
		d := newDelivered()
		h := &answerHandler{commit: c.commit}
		var w *handlerWrap
		if c.answer {
			w = newHandlerWrap(h, nil, d)
		} else {
			w = newHandlerWrap(&fakeHandler{}, nil, d)
		}
		rt := &fakeRuntime{calls: map[string]int{}}
		w.OnMessage(rt, model.NoProc, incr)
		w.OnMessage(rt, model.NoProc, incr) // the gateway's resend, same tag
		if pos, _ := d.get("x"); pos != c.want {
			t.Errorf("commit=%v answered=%v: %d steps delivered, want %d", c.commit, c.answer, pos, c.want)
		}
		if c.answer && len(w.open) != 0 {
			t.Errorf("commit=%v: %d transactions left open after their answers", c.commit, len(w.open))
		}
	}
}
