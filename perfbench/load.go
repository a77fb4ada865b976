package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/virtualpartitions/vp/internal/gateway"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/workload"
)

// opKind is the shape of one generated request.
type opKind uint8

const (
	opRead opKind = iota
	opIncr
	opTransfer // move 1 from a to b
)

// op is one request of the schedule, by object index.
type op struct {
	kind opKind
	a, b int32
}

// genOps draws n requests from one internal/workload generator. Only
// these requests ever reach the program.
func genOps(seed int64, w *workloadSpec, objs []model.ObjectID, n int) []op {
	index := make(map[model.ObjectID]int32, len(objs))
	for i, o := range objs {
		index[o] = int32(i)
	}
	mix := workload.Mix{ReadFraction: w.ReadFraction, TransferFraction: w.TransferFraction}
	g := workload.NewGenerator(seed, objs, []model.ProcID{1}, mix, w.Zipf)
	out := make([]op, n)
	for i := range out {
		t := g.Next()
		ops := t.Request.Ops
		switch {
		case t.ReadOnly:
			out[i] = op{kind: opRead, a: index[ops[0].Obj]}
		case len(ops) == 4: // wire.TransferOps: read a, read b, a -= 1, b += 1
			out[i] = op{kind: opTransfer, a: index[ops[0].Obj], b: index[ops[1].Obj]}
		default: // wire.IncrementOps
			out[i] = op{kind: opIncr, a: index[ops[0].Obj]}
		}
	}
	return out
}

// deal splits one request stream round-robin over k sessions.
func deal(ops []op, k int) [][]op {
	out := make([][]op, k)
	for i, o := range ops {
		out[i%k] = append(out[i%k], o)
	}
	return out
}

// phaseKind tells the generator how to pace a phase.
type phaseKind uint8

const (
	closedLoop phaseKind = iota
	pacedLoop
)

// phasePlan is one phase of the schedule, built before the clock starts.
type phasePlan struct {
	name     string
	kind     phaseKind
	sessions [][]op
	// paced: each session sends one request every interval, session i
	// offset by i·interval/len(sessions). closed: each session sends its
	// requests back to back, each as soon as the previous one answered.
	interval time.Duration
}

// schedule is the whole seeded input of one run.
type schedule struct {
	warm, paced, sat, cycles phasePlan
}

// Session counts: the closed loop keeps 32 requests outstanding, as the
// repository's BENCH files do; the paced loop spreads its rate over 64
// sequential sessions so a session is rarely still busy when its next
// request falls due.
const (
	closedSessions = 32
	pacedSessions  = 64
)

// buildSchedule derives every request of a run from the seed.
func buildSchedule(seed int64, w *workloadSpec, objs []model.ObjectID, p phaseTimes) *schedule {
	// A closed phase sends a fixed number of requests, sized to take
	// its length at the workload's saturation throughput, so that what
	// it writes to the journals does not depend on the host's speed.
	closed := func(name string, sub int64, length time.Duration) phasePlan {
		n := max(int(w.SatRate*length.Seconds()), closedSessions)
		return phasePlan{name: name, kind: closedLoop,
			sessions: deal(genOps(seed*16+sub, w, objs, n), closedSessions)}
	}
	paced := func(name string, sub int64, length time.Duration) phasePlan {
		n := int(w.PacedRate * length.Seconds())
		if n < pacedSessions {
			n = pacedSessions
		}
		return phasePlan{name: name, kind: pacedLoop,
			interval: time.Duration(float64(pacedSessions) / w.PacedRate * float64(time.Second)),
			sessions: deal(genOps(seed*16+sub, w, objs, n), pacedSessions)}
	}
	s := &schedule{
		warm:  paced("warm-up", 1, p.warm),
		paced: paced("paced", 2, p.paced),
		sat:   closed("saturation", 3, p.sat),
	}
	// Enough paced requests to last until the run's time limit; the
	// phase ends when the last cycle does.
	s.cycles = paced("cycles", 4, p.cycles)
	return s
}

// phaseTimes are the phase lengths of one run.
type phaseTimes struct {
	warm, paced, sat, cycles time.Duration
}

// sample is one finished request as the generator saw it.
type sample struct {
	op        op
	due, sent time.Time // due is zero in closed loops
	serveNS   int64     // time inside ServeHTTP
	done      time.Time
	out       outcome
}

// outcome classifies the answer to one request.
type outcome uint8

const (
	committed outcome = iota
	refused           // answered, not committed (409, 4xx)
	shed              // 503: admission shed it
	timedOut          // 502/504: the gateway gave up
	hung              // no answer long after the gateway's own deadline
)

// hangGrace is how long a request may stay unanswered: more than the
// gateway's deadline plus one attempt. Once every unfinished session of
// a phase waits on such a request, the phase ends, the requests count as
// hung and are left behind, so a lost reply cannot stall the run.
const hangGrace = 25 * time.Second

// ledger is the bookkeeping the correctness gate needs, shared by every
// session: per-object attempted and acknowledged effects, read-your-
// writes violations, and the newest acknowledged version of the
// freshness-probe object.
type ledger struct {
	attInc, ackInc []atomic.Int32
	attOut, ackOut []atomic.Int32
	attIn, ackIn   []atomic.Int32
	violations     atomic.Int64
	notes          sync.Map // first violation text per kind

	probeMu  sync.Mutex
	probeObj int32
	probeVer model.Version
}

func newLedger(objects int) *ledger {
	return &ledger{
		attInc: make([]atomic.Int32, objects), ackInc: make([]atomic.Int32, objects),
		attOut: make([]atomic.Int32, objects), ackOut: make([]atomic.Int32, objects),
		attIn: make([]atomic.Int32, objects), ackIn: make([]atomic.Int32, objects),
	}
}

func (l *ledger) violate(kind, format string, args ...any) {
	l.violations.Add(1)
	l.notes.LoadOrStore(kind, fmt.Sprintf(format, args...))
}

// ackedProbe returns the newest acknowledged version of the probe object.
func (l *ledger) ackedProbe() model.Version {
	l.probeMu.Lock()
	defer l.probeMu.Unlock()
	return l.probeVer
}

func (l *ledger) noteAck(obj int32, v model.Version) {
	if obj != l.probeObj {
		return
	}
	l.probeMu.Lock()
	if l.probeVer.Less(v) {
		l.probeVer = v
	}
	l.probeMu.Unlock()
}

// session is one gateway session: its requests run strictly in order,
// it carries the token the gateway hands back, and it remembers the
// versions of its own acknowledged writes to check read-your-writes.
type session struct {
	token string
	marks map[int32]model.Version
}

// loadgen issues requests to the gateway handler in process: no client
// sockets, no HTTP client stack.
type loadgen struct {
	h    http.Handler
	objs []model.ObjectID
	led  *ledger
	// dumpDir receives a goroutine dump when a request hangs.
	dumpDir string
}

func verOf(r gateway.VerRef) model.Version {
	return model.Version{Date: model.VPID{N: r.VPN, P: r.VPP}, Ctr: r.Ctr}
}

// request builds the HTTP request for one op.
func (d *loadgen) request(o op, token string) *http.Request {
	var r *http.Request
	switch o.kind {
	case opRead:
		r = httptest.NewRequest(http.MethodGet, "/read?obj="+string(d.objs[o.a]), nil)
	case opIncr:
		body := `{"ops":[{"kind":"incr","obj":"` + string(d.objs[o.a]) + `","delta":1}]}`
		r = httptest.NewRequest(http.MethodPost, "/txn", bytes.NewReader([]byte(body)))
	default:
		body := `{"ops":[{"kind":"incr","obj":"` + string(d.objs[o.a]) + `","delta":-1},` +
			`{"kind":"incr","obj":"` + string(d.objs[o.b]) + `","delta":1}]}`
		r = httptest.NewRequest(http.MethodPost, "/txn", bytes.NewReader([]byte(body)))
	}
	if token != "" {
		r.Header.Set(gateway.SessionHeader, token)
	}
	return r
}

// do sends one request and checks the answer against the session.
func (d *loadgen) do(s *session, o op) (outcome, int64) {
	l := d.led
	switch o.kind {
	case opIncr:
		l.attInc[o.a].Add(1)
	case opTransfer:
		l.attOut[o.a].Add(1)
		l.attIn[o.b].Add(1)
	}
	rec := httptest.NewRecorder()
	req := d.request(o, s.token)
	began := time.Now()
	d.h.ServeHTTP(rec, req)
	serve := time.Since(began).Nanoseconds()
	switch rec.Code {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		return shed, serve
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return timedOut, serve
	default:
		return refused, serve
	}
	var tr gateway.TxnResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil || !tr.Committed {
		return refused, serve
	}
	if tok := rec.Header().Get(gateway.SessionHeader); tok != "" {
		s.token = tok
	}
	switch o.kind {
	case opRead:
		if len(tr.Reads) != 1 || tr.Reads[0].Obj != string(d.objs[o.a]) {
			l.violate("read-shape", "read of %s answered with %+v", d.objs[o.a], tr.Reads)
			break
		}
		got := verOf(tr.Reads[0].Version)
		if mark, ok := s.marks[o.a]; ok && got.Less(mark) {
			l.violate("read-your-writes", "session read %s at %v after its own write at %v",
				d.objs[o.a], got, mark)
		}
	case opIncr:
		l.ackInc[o.a].Add(1)
	case opTransfer:
		l.ackOut[o.a].Add(1)
		l.ackIn[o.b].Add(1)
	}
	for _, w := range tr.Writes {
		idx, err := strconv.Atoi(w.Obj[1:])
		if err != nil {
			continue
		}
		v := verOf(w.Version)
		if mark, ok := s.marks[int32(idx)]; !ok || mark.Less(v) {
			s.marks[int32(idx)] = v
		}
		l.noteAck(int32(idx), v)
	}
	return committed, serve
}

// phaseResult is everything a phase recorded.
type phaseResult struct {
	name     string
	began    time.Time
	ended    time.Time
	samples  []sample
	lagMS    []float64 // generator lateness of paced sends on idle sessions
	attempts int64
	byOut    [hung + 1]int64
}

func (r *phaseResult) committed() int64 { return r.byOut[committed] }
func (r *phaseResult) failed() int64    { return r.attempts - r.byOut[committed] }

// run executes a phase to completion: when its sessions have sent every
// request, or, for a paced phase, early when ctx ends (kill cycles
// finished).
func (d *loadgen) run(ctx context.Context, p *phasePlan) *phaseResult {
	res := &phaseResult{name: p.name}
	// local is one session's record; mu orders the session's appends
	// with the collector, which may read a hung session's record.
	type local struct {
		mu       sync.Mutex
		samples  []sample
		lag      []float64
		busy     bool
		pending  sample
		finished bool
	}
	locals := make([]local, len(p.sessions))
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range p.sessions {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &session{marks: map[int32]model.Version{}}
			ops := p.sessions[i]
			loc := &locals[i]
			defer func() {
				loc.mu.Lock()
				loc.finished = true
				loc.mu.Unlock()
			}()
			send := func(o op, due, sent time.Time) {
				loc.mu.Lock()
				loc.busy, loc.pending = true, sample{op: o, due: due, sent: sent}
				loc.mu.Unlock()
				out, serve := d.do(s, o)
				smp := sample{op: o, due: due, sent: sent, serveNS: serve, done: time.Now(), out: out}
				loc.mu.Lock()
				loc.busy = false
				loc.samples = append(loc.samples, smp)
				loc.mu.Unlock()
			}
			if p.kind == closedLoop {
				time.Sleep(time.Until(start))
				for _, o := range ops {
					send(o, time.Time{}, time.Now())
				}
				return
			}
			offset := p.interval * time.Duration(i) / time.Duration(len(p.sessions))
			prevDone := start
			for k, o := range ops {
				due := start.Add(offset + time.Duration(k)*p.interval)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				} else if ctx.Err() != nil {
					return
				}
				sent := time.Now()
				if !prevDone.After(due) {
					loc.mu.Lock()
					loc.lag = append(loc.lag, float64(sent.Sub(due))/float64(time.Millisecond))
					loc.mu.Unlock()
				}
				send(o, due, sent)
				prevDone = time.Now()
			}
		}()
	}
	res.began = start
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var hangs bool
	for !hangs {
		select {
		case <-done:
		case <-time.After(time.Second):
			stuck, moving := 0, 0
			for i := range locals {
				loc := &locals[i]
				loc.mu.Lock()
				switch {
				case loc.finished:
				case loc.busy && time.Since(loc.pending.sent) >= hangGrace:
					stuck++
				default:
					moving++
				}
				loc.mu.Unlock()
			}
			hangs = stuck > 0 && moving == 0
			continue
		}
		break
	}
	res.ended = time.Now()
	for i := range locals {
		loc := &locals[i]
		loc.mu.Lock()
		res.samples = append(res.samples, loc.samples...)
		res.lagMS = append(res.lagMS, loc.lag...)
		if hangs && loc.busy {
			smp := loc.pending
			smp.done, smp.out = time.Now(), hung
			res.samples = append(res.samples, smp)
		}
		loc.mu.Unlock()
	}
	if hangs {
		d.dumpGoroutines(p.name)
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].sent.Before(res.samples[j].sent) })
	for _, s := range res.samples {
		res.attempts++
		res.byOut[s.out]++
	}
	return res
}

// dumpGoroutines writes every goroutine's stack next to the run's
// other output, for diagnosing a hung request.
func (d *loadgen) dumpGoroutines(phase string) {
	if d.dumpDir == "" {
		return
	}
	path := filepath.Join(d.dumpDir, fmt.Sprintf("hang-%s-%d.txt", phase, os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	pprof.Lookup("goroutine").WriteTo(f, 2) //nolint:errcheck // diagnostics only
	fmt.Fprintf(os.Stderr, "perfbench: %s phase left requests unanswered; stacks in %s\n", phase, path)
}
