package eventq

import (
	"slices"
	"testing"

	"parsurf/internal/rng"
)

// refQueue is the swap-based indexed heap the hole-sift Queue replaced,
// kept as the reference its array layout must match exactly: FRM
// checkpoints save the heap array verbatim, and tie-breaks between
// equal times depend on it.
type refQueue struct {
	heap []Event
	pos  []int32
}

func newRef(keySpace int) *refQueue { return &refQueue{pos: make([]int32, keySpace)} }

func (q *refQueue) Schedule(key int64, time float64) {
	if p := q.pos[key]; p != 0 {
		i := int(p - 1)
		old := q.heap[i].Time
		if time == old {
			return
		}
		q.heap[i].Time = time
		if time < old {
			q.up(i)
		} else {
			q.down(i)
		}
		return
	}
	q.heap = append(q.heap, Event{Time: time, Key: key})
	i := len(q.heap) - 1
	q.pos[key] = int32(i + 1)
	q.up(i)
}

func (q *refQueue) Remove(key int64) bool {
	p := q.pos[key]
	if p == 0 {
		return false
	}
	i := int(p - 1)
	last := len(q.heap) - 1
	q.swap(i, last)
	q.heap = q.heap[:last]
	q.pos[key] = 0
	if i < last {
		if !q.down(i) {
			q.up(i)
		}
	}
	return true
}

func (q *refQueue) Pop() (Event, bool) {
	if len(q.heap) == 0 {
		return Event{}, false
	}
	ev := q.heap[0]
	q.Remove(ev.Key)
	return ev, true
}

func (q *refQueue) swap(i, j int) {
	if i == j {
		return
	}
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i].Key] = int32(i + 1)
	q.pos[q.heap[j].Key] = int32(j + 1)
}

func (q *refQueue) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if q.heap[parent].Time <= q.heap[i].Time {
			break
		}
		q.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (q *refQueue) down(i int) bool {
	moved := false
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.heap[l].Time < q.heap[smallest].Time {
			smallest = l
		}
		if r < n && q.heap[r].Time < q.heap[smallest].Time {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.swap(i, smallest)
		i = smallest
		moved = true
	}
	return moved
}

// refKeys is the key space of the differential runs: small, so
// reschedules and removals of present keys are frequent.
const refKeys = 48

// replayAgainstRef decodes ops three bytes at a time — operation, key,
// time — and applies each to a Queue and to the reference, failing at
// the first operation after which their results, heap arrays or key
// indexes differ. Times take 16 values, so ties are common.
func replayAgainstRef(t *testing.T, ops []byte) {
	t.Helper()
	q, ref := New(refKeys), newRef(refKeys)
	var snap []Event
	for i := 0; i+3 <= len(ops); i += 3 {
		key := int64(ops[i+1]) % refKeys
		tm := float64(ops[i+2] % 16)
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
		}
		snap = q.Snapshot(snap[:0])
		if !slices.Equal(snap, ref.heap) {
			t.Fatalf("op %d: heap %v, reference %v", i/3, snap, ref.heap)
		}
		if !slices.Equal(q.pos, ref.pos) {
			t.Fatalf("op %d: key index differs from the reference", i/3)
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

// The hole sift must leave the same heap array and key index as the
// swap-based reference after every Schedule, Remove and Pop.
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
