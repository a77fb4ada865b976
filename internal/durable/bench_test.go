package durable

import (
	"fmt"
	"testing"

	"github.com/virtualpartitions/vp/internal/model"
)

// benchDir builds a journal directory holding `objects` committed
// copies, each written once plus `churn` extra writes spread over the
// object space, group-committed in batches. Returns the directory and
// each object's final version (the rejoiner's date vector in the R5
// catch-up benchmarks).
func benchDir(b *testing.B, objects, churn int) (string, map[model.ObjectID]model.Version) {
	b.Helper()
	dir := b.TempDir()
	_, j, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	vers := make(map[model.ObjectID]model.Version, objects)
	write := func(i, ctr int) {
		obj := model.ObjectID(fmt.Sprintf("obj-%06d", i))
		v := model.Version{Date: model.VPID{N: 1, P: 1}, Ctr: uint64(ctr)}
		j.Apply(obj, model.Value(ctr), v)
		vers[obj] = v
	}
	for i := 0; i < objects; i++ {
		write(i, 1)
		if i%256 == 255 {
			if err := j.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for c := 0; c < churn; c++ {
		write(c%objects, 2+c/objects)
	}
	if err := j.Sync(); err != nil {
		b.Fatal(err)
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, vers
}

// BenchmarkRecovery measures a cold restart — Open replays the newest
// snapshot plus the retained segment tail — as the object count grows.
func BenchmarkRecovery(b *testing.B) {
	for _, objects := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("objs=%d", objects), func(b *testing.B) {
			dir, _ := benchDir(b, objects, objects/4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, j, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if len(st.Copies) != objects {
					b.Fatalf("recovered %d copies, want %d", len(st.Copies), objects)
				}
				j.Close()
			}
		})
	}
}

// BenchmarkCatchupDelta measures the default R5 path: a rejoining node
// missed `missed` writes, and the serving peer consults its retained
// WAL tail only for the objects that are actually stale (the date
// vectors match everywhere else, so those objects never reach the
// journal). wire-B/op is the payload actually shipped — value + version
// per entry — independent of how many objects the database holds; B/op
// stays the real -benchmem allocation figure.
func BenchmarkCatchupDelta(b *testing.B) {
	const missed = 16
	for _, objects := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("objs=%d", objects), func(b *testing.B) {
			dir, vers := benchDir(b, objects, objects/4)
			_, j, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			// The rejoiner is one write behind on the first `missed`
			// objects and current everywhere else.
			stale := make(map[model.ObjectID]model.Version, missed)
			for i := 0; i < missed; i++ {
				obj := model.ObjectID(fmt.Sprintf("obj-%06d", i))
				v := vers[obj]
				v.Ctr--
				stale[obj] = v
			}
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				var entries, payload int64
				for obj, v := range stale {
					recs, ok := j.LogSince(obj, v)
					if !ok {
						b.Fatalf("retained tail cannot serve %s", obj)
					}
					for _, r := range recs {
						entries++
						payload += int64(len(obj)) + 8 + 16 // value + version, framed
						_ = r
					}
				}
				if entries < missed {
					b.Fatalf("served %d entries, want >= %d", entries, missed)
				}
				bytes = payload
			}
			b.ReportMetric(float64(bytes), "wire-B/op")
		})
	}
}

// BenchmarkCatchupFullCopy is the fallback the delta path replaces: the
// rejoiner copies every shared object wholesale. wire-B/op is the
// serialized full state — compare against BenchmarkCatchupDelta at the
// same object count for the §6 payoff.
func BenchmarkCatchupFullCopy(b *testing.B) {
	for _, objects := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("objs=%d", objects), func(b *testing.B) {
			dir, _ := benchDir(b, objects, objects/4)
			st, j, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				buf := appendState(nil, st)
				bytes = int64(len(buf))
			}
			b.ReportMetric(float64(bytes), "wire-B/op")
		})
	}
}
