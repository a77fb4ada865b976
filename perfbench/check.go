package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/onecopy"
)

// checkResult lists every correctness violation of a run.
type checkResult struct {
	violations []string
	// redelivered is how many more increment steps reached the nodes,
	// and were not answered as aborted, than the generator sent: the
	// gateway's resends.
	redelivered int64
}

func (r *checkResult) add(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// checkRun is the correctness gate. It runs after timing stops:
//   - the recorded history is one-copy serializable (onecopy.CheckGraph);
//   - no session read older than its own acknowledged writes, and every
//     restarted node served its first read fresh (checked while driving);
//   - no acknowledged effect is lost: each object's final value lies
//     between what was acknowledged and what the nodes were handed and
//     did not answer as aborted (the gateway resends a transaction whose
//     answer is late, so a request may commit twice), and the total is
//     conserved by transfers;
//   - every copy of every object agrees on value and version.
func checkRun(c *cluster, led *ledger) checkResult {
	var r checkResult
	led.notes.Range(func(k, v any) bool {
		r.add("%s: %s", k, v)
		return true
	})
	if n := led.violations.Load(); n > 0 {
		r.add("%d violations while driving", n)
	}
	if err := quiesce(c, 20*time.Second); err != nil {
		r.add("%v", err)
		return r
	}
	copies, err := readCopies(c)
	if err != nil {
		r.add("%v", err)
		return r
	}
	var sum, ackSum, hiSum int64
	for i, obj := range c.objs {
		cs := copies[obj]
		if want := c.members(c.shardOf(obj)).Len(); len(cs) != want {
			r.add("object %s: %d copies, want %d", obj, len(cs), want)
			continue
		}
		for _, cp := range cs[1:] {
			if cp != cs[0] {
				r.add("object %s: replicas disagree: %+v vs %+v", obj, cs[0], cp)
				break
			}
		}
		v := int64(cs[0].Val)
		sum += v
		// Every acknowledged step applied at least once, and no step
		// more often than the nodes were handed it without refusing it.
		pos, neg := c.sent.get(obj)
		r.redelivered += pos + neg - int64(led.attInc[i].Load()+led.attIn[i].Load()+led.attOut[i].Load())
		ackSum += int64(led.ackInc[i].Load())
		hiSum += pos - int64(led.ackIn[i].Load())
		lo := int64(led.ackInc[i].Load()+led.ackIn[i].Load()) - neg
		hi := pos - int64(led.ackOut[i].Load())
		if v < lo || v > hi {
			r.add("object %s: final value %d outside [%d acknowledged, %d delivered]", obj, v, lo, hi)
		}
	}
	// Transfers conserve the total, so it counts increments only.
	if sum < ackSum || sum > hiSum {
		r.add("total %d outside [%d acknowledged, %d delivered] increments", sum, ackSum, hiSum)
	}
	if res := onecopy.CheckGraph(c.hist); !res.OK {
		r.add("history not one-copy serializable: %s", res.Reason)
	}
	return r
}

// quiesce waits until every partition holds all its members and no
// node has a transaction in flight or an object locked for rule R5.
func quiesce(c *cluster, limit time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	if err := c.ev.wait(ctx, func(st map[memberKey]memberState) bool { return c.settled(st, model.NoProc) }); err != nil {
		return fmt.Errorf("partitions did not re-form after the load: %w", err)
	}
	for _, p := range c.procs {
		m := c.node(p)
		for {
			var idle bool
			if onLoop(m.tcp, time.Second, func() {
				idle = m.wrap.busyTxns() == 0 && m.wrap.assigned() && !m.wrap.refreshing()
			}) && idle {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("node %v did not go idle after the load", p)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// readCopies reads every node's copy of every object it hosts, on the
// node's event loop.
func readCopies(c *cluster) (map[model.ObjectID][]model.Copy, error) {
	out := make(map[model.ObjectID][]model.Copy, len(c.objs))
	for _, p := range c.procs {
		m := c.node(p)
		type kv struct {
			obj model.ObjectID
			cp  model.Copy
		}
		var got []kv
		if !onLoop(m.tcp, 10*time.Second, func() {
			for _, n := range m.wrap.cores() {
				for _, obj := range n.Store.Objects() {
					got = append(got, kv{obj, n.Store.Get(obj)})
				}
			}
		}) {
			return nil, fmt.Errorf("node %v: could not read its copies", p)
		}
		sort.Slice(got, func(i, j int) bool { return got[i].obj < got[j].obj })
		for _, e := range got {
			out[e.obj] = append(out[e.obj], e.cp)
		}
	}
	return out, nil
}
