// Package eventq provides an indexed binary min-heap of timed events for
// the First Reaction Method (FRM): every (reaction, site) pair can carry
// at most one scheduled occurrence time, and state changes must be able
// to reschedule or cancel events cheaply. The heap supports O(log n)
// push, pop, update and remove by event key.
//
// Keys live in a dense space [0, keySpace) fixed at construction (FRM
// uses rt·N + site), so the key → heap-position index is a flat slice
// rather than a hash map — no hashing, no map churn on the reschedule
// path that runs after every executed reaction.
//
// Sifts move a hole rather than swapping pairwise: the displaced event
// is held aside, each level shifts one neighbour into the hole and
// writes one index entry, and the event lands once at the end. The
// comparisons, their order and the resulting array are exactly those
// of the textbook swap-based sift (a test-only reference implementation
// and FuzzQueueMatchesReference pin this), so Snapshot bytes — and with
// them FRM checkpoints and tie-breaks between equal times — do not
// depend on which of the two runs.
package eventq

import "fmt"

// Event is a scheduled reaction occurrence.
type Event struct {
	Time float64
	Key  int64 // caller-defined identity in [0, keySpace), e.g. rt*N + site
}

// Queue is an indexed min-heap ordered by Event.Time. Each Key appears at
// most once; Schedule replaces an existing event for the same key.
type Queue struct {
	heap []Event
	pos  []int32 // key -> heap index + 1; 0 = absent
}

// New returns an empty queue accepting keys in [0, keySpace).
func New(keySpace int) *Queue {
	if keySpace < 0 {
		panic(fmt.Sprintf("eventq: negative key space %d", keySpace))
	}
	return &Queue{pos: make([]int32, keySpace)}
}

// KeySpace returns the exclusive upper bound on keys.
func (q *Queue) KeySpace() int { return len(q.pos) }

// Reset empties the queue, keeping the heap's capacity and the position
// index allocation — the queue behaves as freshly constructed. Engine
// Reset uses it to rewind FRM without reallocating the O(keySpace)
// index.
func (q *Queue) Reset() {
	for _, ev := range q.heap {
		q.pos[ev.Key] = 0
	}
	q.heap = q.heap[:0]
}

// Len returns the number of scheduled events.
func (q *Queue) Len() int { return len(q.heap) }

// Snapshot appends the events in internal heap order to dst and
// returns it. Restoring the exact array order (rather than re-inserting
// events one by one) makes a restored queue bit-identical to the
// original: subsequent Schedule/Remove sift sequences, and therefore
// tie-breaks between equal times, replay exactly.
func (q *Queue) Snapshot(dst []Event) []Event {
	return append(dst, q.heap...)
}

// Restore replaces the queue's contents with a Snapshot, placing the
// events verbatim (no sifting) and rebuilding the key index. Events
// must have keys in [0, KeySpace()) with no duplicates, and every
// event's time must be no earlier than its parent's (the heap
// property, which Snapshot output satisfies); otherwise Restore leaves
// the queue empty and returns an error.
func (q *Queue) Restore(events []Event) error {
	for _, ev := range q.heap {
		q.pos[ev.Key] = 0
	}
	q.heap = q.heap[:0]
	for i, ev := range events {
		if ev.Key < 0 || ev.Key >= int64(len(q.pos)) {
			q.Reset()
			return fmt.Errorf("eventq: restored key %d outside [0,%d)", ev.Key, len(q.pos))
		}
		if q.pos[ev.Key] != 0 {
			q.Reset()
			return fmt.Errorf("eventq: duplicate restored key %d", ev.Key)
		}
		if parent := (i - 1) / 2; i > 0 && !(events[parent].Time <= ev.Time) {
			q.Reset()
			return fmt.Errorf("eventq: restored event %d (time %v) is earlier than its parent %d (time %v)",
				i, ev.Time, parent, events[parent].Time)
		}
		q.heap = append(q.heap, ev)
		q.pos[ev.Key] = int32(i + 1)
	}
	return nil
}

// Schedule inserts an event, or reschedules the existing event with the
// same key to the new time. Rescheduling to the exact time already held
// is a no-op: the heap property cannot have changed, so the sift is
// skipped entirely.
func (q *Queue) Schedule(key int64, time float64) {
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

// Remove cancels the event with the given key, reporting whether it was
// present.
func (q *Queue) Remove(key int64) bool {
	p := q.pos[key]
	if p == 0 {
		return false
	}
	i := int(p - 1)
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	q.pos[key] = 0
	if i < last {
		// Move the last event into the freed slot, then sift it.
		q.heap[i] = moved
		q.pos[moved.Key] = p
		if !q.down(i) {
			q.up(i)
		}
	}
	return true
}

// Contains reports whether an event with the given key is scheduled.
func (q *Queue) Contains(key int64) bool {
	return q.pos[key] != 0
}

// Pop removes and returns the earliest event. ok is false when empty.
// It is Remove of the root without the key lookup: the last event
// moves into the root and sifts down (a root cannot move up).
func (q *Queue) Pop() (Event, bool) {
	n := len(q.heap)
	if n == 0 {
		return Event{}, false
	}
	ev := q.heap[0]
	q.pos[ev.Key] = 0
	moved := q.heap[n-1]
	q.heap = q.heap[:n-1]
	if n > 1 {
		q.heap[0] = moved
		q.pos[moved.Key] = 1
		q.down(0)
	}
	return ev, true
}

// up moves the event at index i toward the root until its parent is
// not later, shifting each later parent down into the hole; it reports
// whether the event moved.
func (q *Queue) up(i int) bool {
	ev := q.heap[i]
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		p := q.heap[parent]
		if p.Time <= ev.Time {
			break
		}
		q.heap[i] = p
		q.pos[p.Key] = int32(i + 1)
		i = parent
	}
	if i == start {
		return false
	}
	q.heap[i] = ev
	q.pos[ev.Key] = int32(i + 1)
	return true
}

// down moves the event at index i toward the leaves until no child is
// strictly earlier, shifting the earlier child (the left one on a tie)
// up into the hole; it reports whether the event moved.
func (q *Queue) down(i int) bool {
	ev := q.heap[i]
	start := i
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c, ct := i, ev.Time
		if t := q.heap[l].Time; t < ct {
			c, ct = l, t
		}
		if r := l + 1; r < n && q.heap[r].Time < ct {
			c = r
		}
		if c == i {
			break
		}
		child := q.heap[c]
		q.heap[i] = child
		q.pos[child.Key] = int32(i + 1)
		i = c
	}
	if i == start {
		return false
	}
	q.heap[i] = ev
	q.pos[ev.Key] = int32(i + 1)
	return true
}
