package trace

import (
	"fmt"
	"sort"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
)

// Span-tree assembly over EvSpan events. Each EvSpan records a closed
// span: Ctx carries (trace id, span id, parent span id), At is the end
// time and Aux the duration, so the span reconstructs as [At-Aux, At].
// Assembly links children to parents by span id within one trace id and
// tolerates real-capture defects: duplicated frames (nemesis duplication
// re-records nothing — spans are recorded node-side — but merged captures
// may repeat events), dropped frames (a child whose parent span was never
// recorded becomes an orphan root).
//
// Phase statistics and the critical path use only per-span durations,
// never cross-node timestamp arithmetic, so clock skew between processes
// cannot corrupt them; absolute times order spans within one process
// only.

// Span is one reconstructed span of a trace.
type Span struct {
	Ctx   model.TraceCtx
	Proc  model.ProcID
	Phase string
	Start time.Duration
	End   time.Duration
	Txn   model.TxnID
	// Orphan marks a span whose parent id was never seen (dropped frame,
	// ring overwrite, or a capture that missed a node); it is promoted to
	// a root so its subtree still renders.
	Orphan   bool
	Children []*Span
}

// Dur returns the span's duration.
func (s *Span) Dur() time.Duration { return s.End - s.Start }

// Tree is the assembled span forest of one trace id.
type Tree struct {
	Trace uint64
	// Roots holds parentless spans (Parent == 0 or orphaned), longest
	// first so Roots[0] is the request's top-level span when present.
	Roots []*Span
	// Spans holds every span of the trace, in recorded order.
	Spans []*Span
	// Orphans counts spans promoted to roots because their parent is
	// missing from the capture.
	Orphans int
}

// Dur returns the duration of the tree's longest root span.
func (t *Tree) Dur() time.Duration {
	if len(t.Roots) == 0 {
		return 0
	}
	return t.Roots[0].Dur()
}

// BuildTrees assembles span trees from a raw event stream (any mix of
// kinds; non-span events are ignored). Duplicate (trace, span) sightings
// keep the first copy. Trees are returned sorted by trace id so output
// is deterministic.
func BuildTrees(events []Event) []*Tree {
	byTrace := make(map[uint64]*Tree)
	index := make(map[uint64]map[uint32]*Span)
	for i := range events {
		e := &events[i]
		if e.Kind != EvSpan || e.Ctx.Trace == 0 || e.Ctx.Span == 0 {
			continue
		}
		t := byTrace[e.Ctx.Trace]
		if t == nil {
			t = &Tree{Trace: e.Ctx.Trace}
			byTrace[e.Ctx.Trace] = t
			index[e.Ctx.Trace] = make(map[uint32]*Span)
		}
		if _, dup := index[e.Ctx.Trace][e.Ctx.Span]; dup {
			continue
		}
		s := &Span{
			Ctx:   e.Ctx,
			Proc:  e.Proc,
			Phase: e.Msg,
			Start: e.At - time.Duration(e.Aux),
			End:   e.At,
			Txn:   e.Txn,
		}
		index[e.Ctx.Trace][e.Ctx.Span] = s
		t.Spans = append(t.Spans, s)
	}
	out := make([]*Tree, 0, len(byTrace))
	for trace, t := range byTrace {
		idx := index[trace]
		for _, s := range t.Spans {
			if s.Ctx.Parent == 0 {
				t.Roots = append(t.Roots, s)
				continue
			}
			if p, ok := idx[s.Ctx.Parent]; ok && p != s {
				p.Children = append(p.Children, s)
			} else {
				s.Orphan = true
				t.Orphans++
				t.Roots = append(t.Roots, s)
			}
		}
		sort.SliceStable(t.Roots, func(i, j int) bool {
			return t.Roots[i].Dur() > t.Roots[j].Dur()
		})
		for _, s := range t.Spans {
			kids := s.Children
			sort.SliceStable(kids, func(i, j int) bool {
				if kids[i].Start != kids[j].Start {
					return kids[i].Start < kids[j].Start
				}
				return kids[i].Ctx.Span < kids[j].Ctx.Span
			})
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Trace < out[j].Trace })
	return out
}

// PhaseStat is the latency distribution of one phase across a capture.
type PhaseStat struct {
	Phase string
	Count int
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
	Total time.Duration
}

// PhaseStats aggregates per-phase durations over the trees, sorted by
// total time spent (descending) so the dominant phase leads.
func PhaseStats(trees []*Tree) []PhaseStat {
	byPhase := make(map[string][]time.Duration)
	for _, t := range trees {
		for _, s := range t.Spans {
			byPhase[s.Phase] = append(byPhase[s.Phase], s.Dur())
		}
	}
	out := make([]PhaseStat, 0, len(byPhase))
	for phase, durs := range byPhase {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		var total time.Duration
		for _, d := range durs {
			total += d
		}
		out = append(out, PhaseStat{
			Phase: phase,
			Count: len(durs),
			P50:   percentile(durs, 50),
			P99:   percentile(durs, 99),
			Max:   durs[len(durs)-1],
			Total: total,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// percentile reads the p-th percentile from sorted durations by the
// nearest-rank method.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)-1)*p + 50
	return sorted[i/100]
}

// PathStep is one hop of a critical path: the span and its share of the
// root span's duration.
type PathStep struct {
	Span *Span
	Frac float64
}

// CriticalPath walks from the tree's longest root span down the
// longest-duration child at every level, attributing the request's
// latency to the chain of phases that dominated it. Fractions are of the
// root's duration and use only per-span durations, so the result is
// valid across skewed node clocks.
func (t *Tree) CriticalPath() []PathStep {
	if len(t.Roots) == 0 {
		return nil
	}
	root := t.Roots[0]
	rootDur := root.Dur()
	var path []PathStep
	for s := root; s != nil; {
		frac := 1.0
		if rootDur > 0 {
			frac = float64(s.Dur()) / float64(rootDur)
		}
		path = append(path, PathStep{Span: s, Frac: frac})
		var next *Span
		for _, c := range s.Children {
			if next == nil || c.Dur() > next.Dur() {
				next = c
			}
		}
		s = next
	}
	return path
}

// Label renders a span for human output: phase @ node, duration.
func (s *Span) Label() string {
	return fmt.Sprintf("%s @ %s (%v)", s.Phase, s.Proc, s.Dur())
}
