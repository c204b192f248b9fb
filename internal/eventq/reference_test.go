package eventq

import (
	"slices"
	"testing"

	"parsurf/internal/rng"
)

// refQueue is the reference the radix queue must match: a plain slice
// of events kept sorted by (time, key).
type refQueue []Event

func (r *refQueue) index(key int64) int {
	return slices.IndexFunc(*r, func(ev Event) bool { return ev.Key == key })
}

func (r *refQueue) Remove(key int64) bool {
	i := r.index(key)
	if i < 0 {
		return false
	}
	*r = slices.Delete(*r, i, i+1)
	return true
}

func (r *refQueue) Schedule(key int64, time float64) {
	r.Remove(key)
	ev := Event{Time: time, Key: key}
	i, _ := slices.BinarySearchFunc(*r, ev, compare)
	*r = slices.Insert(*r, i, ev)
}

func (r *refQueue) Pop() (Event, bool) {
	if len(*r) == 0 {
		return Event{}, false
	}
	ev := (*r)[0]
	*r = (*r)[1:]
	return ev, true
}

// refKeys is the key space of the differential runs: small, so
// reschedules and removals of present keys are frequent.
const refKeys = 48

// replayAgainstRef decodes ops three bytes at a time — operation, key,
// time — and applies each to a Queue and to the reference, failing at
// the first operation after which a result, Len, Contains or the
// sorted Snapshot differs. Times are the last popped time plus a
// multiple of 1/4 below 4, so no operation schedules below the last pop
// and ties, the last popped time itself included, are common.
func replayAgainstRef(t *testing.T, ops []byte) {
	t.Helper()
	q, ref := New(refKeys), refQueue{}
	var snap []Event
	last := 0.0
	for i := 0; i+3 <= len(ops); i += 3 {
		key := int64(ops[i+1]) % refKeys
		tm := last + float64(ops[i+2]%16)/4
		switch ops[i] % 4 {
		case 0, 1:
			q.Schedule(key, tm)
			ref.Schedule(key, tm)
		case 2:
			if got, want := q.Remove(key), ref.Remove(key); got != want {
				t.Fatalf("op %d: Remove(%d) = %v, reference %v", i/3, key, got, want)
			}
		case 3:
			got, gok := q.Pop()
			want, wok := ref.Pop()
			if got != want || gok != wok {
				t.Fatalf("op %d: Pop = %+v,%v, reference %+v,%v", i/3, got, gok, want, wok)
			}
			if gok {
				last = got.Time
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, reference %d", i/3, q.Len(), len(ref))
		}
		for k := int64(0); k < refKeys; k++ {
			if got, want := q.Contains(k), ref.index(k) >= 0; got != want {
				t.Fatalf("op %d: Contains(%d) = %v, reference %v", i/3, k, got, want)
			}
		}
		snap = q.Snapshot(snap[:0])
		if !slices.Equal(snap, ref) {
			t.Fatalf("op %d: snapshot %v, reference %v", i/3, snap, ref)
		}
	}
}

// randomOps returns n random three-byte operations from seed.
func randomOps(seed uint64, n int) []byte {
	src := rng.New(seed)
	ops := make([]byte, 3*n)
	for i := range ops {
		ops[i] = byte(src.Intn(256))
	}
	return ops
}

// The queue must agree with the sorted-set reference after every
// Schedule, Remove and Pop.
func FuzzQueueMatchesReference(f *testing.F) {
	f.Add([]byte{})
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 300))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Longer inputs add cost, not coverage: the key space is small.
		if len(ops) > 3*2000 {
			ops = ops[:3*2000]
		}
		replayAgainstRef(t, ops)
	})
}

// TestQueueMatchesReference runs the differential check over more
// random sequences than the fuzz seed corpus holds.
func TestQueueMatchesReference(t *testing.T) {
	for seed := uint64(100); seed < 300; seed++ {
		replayAgainstRef(t, randomOps(seed, 5000))
	}
}
