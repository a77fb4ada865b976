package durable

import (
	"reflect"
	"sort"
	"testing"

	"github.com/virtualpartitions/vp/internal/model"
)

// walSeedRecords is one record of every tag, scoped snapshots included
// (with a universe and with an empty one): the shapes FuzzWALRecord
// starts from and TestRecordCodecRoundTrip checks.
func walSeedRecords() []*record {
	vv := model.Version{Date: v(3, 2), Ctr: 9, Writer: txn(5)}
	st := NewState()
	st.MaxID = v(9, 1)
	st.Copies["x"] = model.Copy{Val: 4, Ver: vv}
	st.Copies["account/7"] = model.Copy{Val: -12, Ver: model.Version{Date: v(1<<40, 300)}}
	st.Staged[txn(1)] = map[model.ObjectID]StagedWrite{"x": {Val: 5, Ver: vv, MissedBy: []model.ProcID{3}}}
	st.Decides[txn(2)] = DecideRec{Commit: false, Pending: []model.ProcID{2, 3}}
	sharded := NewState()
	sharded.MaxID = v(4, 2)
	sharded.Decides[txn(3)] = DecideRec{Commit: true, Pending: []model.ProcID{2, 3},
		Shards: []model.ShardID{1, 2}}
	return []*record{
		{SetMaxID: &model.VPID{N: 7, P: 3}},
		{ApplyObj: "obj-1", ApplyVal: -42, ApplyVer: &vv},
		{StageTxn: &model.TxnID{Start: -5, P: 2, Seq: 8}, StageObj: "o",
			StageW: &StagedWrite{Val: 1, Ver: vv, Delta: true, MissedBy: []model.ProcID{4, 5}}},
		{DropTxn: &model.TxnID{Start: 1, P: 1, Seq: 1}, DropObj: ""},
		{DecideTxn: &model.TxnID{Start: 2, P: 2, Seq: 2}, DecideCommit: true, DecidePending: []model.ProcID{1}},
		{DecideTxn: &model.TxnID{Start: 2, P: 2, Seq: 3}, DecidePending: []model.ProcID{1, 4},
			DecideShards: []model.ShardID{0, 3}},
		{DoneTxn: &model.TxnID{Start: 3, P: 3, Seq: 3}},
		{Snapshot: st},
		{Snapshot: sharded},
		{Snapshot: st, SnapScoped: true, SnapUniverse: []model.ObjectID{"a", "x"}},
		{Snapshot: sharded, SnapScoped: true, SnapUniverse: []model.ObjectID{}},
	}
}

// FuzzWALRecord drives the journal's frame walker and record parser with
// arbitrary segment bytes. Properties:
//
//   - walkFrames and parseRecord never panic, and walkFrames never
//     reports more valid bytes than it was given;
//   - any payload parseRecord accepts re-encodes with appendRecord to a
//     payload that parses to a deeply equal record;
//   - a frame whose CRC has a flipped bit is never handed to the
//     callback, and the walk stops there.
func FuzzWALRecord(f *testing.F) {
	var all []byte
	for _, r := range walSeedRecords() {
		frame := appendFrame(nil, r)
		f.Add(frame)
		f.Add(frame[frameHeaderLen:]) // bare payload: exercises the walker's length checks
		all = append(all, frame...)
	}
	f.Add(all)
	f.Add(all[:len(all)-3]) // torn tail
	f.Fuzz(func(t *testing.T, data []byte) {
		var offs []int // offset of each frame handed to the callback
		off := 0
		valid, _, _ := walkFrames(data, func(payload []byte) error {
			offs = append(offs, off)
			off += frameHeaderLen + len(payload)
			checkRecordRoundTrip(t, payload)
			return nil
		})
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("walkFrames reported valid=%d of %d bytes", valid, len(data))
		}
		checkRecordRoundTrip(t, data) // the input as one bare payload

		// Flip one bit of each delivered frame's CRC word, in place, and
		// walk from that frame: the frames before it are untouched, so
		// starting there keeps the check linear in the input.
		bad := append([]byte(nil), data...)
		for k, at := range offs {
			bit := &bad[at+4+k%4]
			*bit ^= 1 << (k % 8)
			n := 0
			valid, _, _ := walkFrames(bad[at:], func([]byte) error { n++; return nil })
			if n != 0 || valid != 0 {
				t.Fatalf("frame %d with a flipped CRC bit: callback ran %d times, valid=%d", k, n, valid)
			}
			*bit ^= 1 << (k % 8)
		}
	})
}

// checkRecordRoundTrip asserts parse → appendRecord → parse is stable
// for any payload parseRecord accepts.
func checkRecordRoundTrip(t *testing.T, payload []byte) {
	t.Helper()
	var r1 record
	if !parseRecord(payload, &r1) {
		return
	}
	var r2 record
	if !parseRecord(appendRecord(nil, &r1), &r2) {
		t.Fatalf("re-encoded record does not parse: %+v (from %x)", r1, payload)
	}
	// The universe is a set; appendObjs writes it sorted.
	sort.Slice(r1.SnapUniverse, func(i, j int) bool { return r1.SnapUniverse[i] < r1.SnapUniverse[j] })
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("record round trip drifted:\n got %+v\nwant %+v\n(from %x)", r2, r1, payload)
	}
}
