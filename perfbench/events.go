package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/model"
)

// memberKey names one protocol instance: a processor in one shard.
type memberKey struct {
	p model.ProcID
	s model.ShardID
}

// memberState is the last assignment an instance reported.
type memberState struct {
	assigned bool
	vp       model.VPID
	view     model.ProcSet
}

// viewEvent is one join or depart, stamped on arrival.
type viewEvent struct {
	at   time.Time
	key  memberKey
	join bool
}

// events collects the core.JoinEvent / core.DepartEvent stream every
// protocol instance reports through its Observer, the seam vpnode uses
// for /healthz. Observers run on the node event loops, so this only
// records and signals.
type events struct {
	mu      sync.Mutex
	state   map[memberKey]memberState
	log     []viewEvent
	changed chan struct{}
}

func newEvents() *events {
	return &events{state: map[memberKey]memberState{}, changed: make(chan struct{})}
}

func (e *events) observe(p model.ProcID, s model.ShardID, ev any) {
	now := time.Now()
	k := memberKey{p, s}
	e.mu.Lock()
	switch x := ev.(type) {
	case core.JoinEvent:
		e.state[k] = memberState{assigned: true, vp: x.VP, view: x.View}
		e.log = append(e.log, viewEvent{at: now, key: k, join: true})
	case core.DepartEvent:
		e.state[k] = memberState{}
		e.log = append(e.log, viewEvent{at: now, key: k})
	}
	close(e.changed)
	e.changed = make(chan struct{})
	e.mu.Unlock()
}

// since returns the events recorded at or after t.
func (e *events) since(t time.Time) []viewEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []viewEvent
	for _, v := range e.log {
		if !v.at.Before(t) {
			out = append(out, v)
		}
	}
	return out
}

// dump writes the events recorded at or after t, one a line, with
// their offset from t.
func (e *events) dump(w io.Writer, t time.Time) {
	for _, v := range e.since(t) {
		kind := "depart"
		if v.join {
			kind = "join"
		}
		fmt.Fprintf(w, "  +%6.0fms %v/%v %s\n", msBetween(t, v.at), v.key.p, v.key.s, kind)
	}
}

// wait blocks until pred holds over the member states or ctx ends.
func (e *events) wait(ctx context.Context, pred func(map[memberKey]memberState) bool) error {
	for {
		e.mu.Lock()
		ok := pred(e.state)
		ch := e.changed
		e.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// settled reports whether every member of every shard sits in one
// partition whose view is exactly the shard's copy set, excluding the
// processors in down.
func (c *cluster) settled(st map[memberKey]memberState, down model.ProcID) bool {
	shards := []model.ShardID{model.NoShard}
	if c.smap != nil {
		shards = shards[:0]
		for s := 1; s <= c.smap.NumShards(); s++ {
			shards = append(shards, model.ShardID(s))
		}
	}
	for _, s := range shards {
		want := c.members(s).Clone()
		want.Remove(down)
		var vp model.VPID
		first := true
		for _, p := range want.Sorted() {
			m := st[memberKey{p, s}]
			if !m.assigned || !m.view.Equal(want) {
				return false
			}
			if first {
				vp, first = m.vp, false
			} else if m.vp != vp {
				return false
			}
		}
	}
	return true
}
