// Package eventq provides the indexed event queue of the First Reaction
// Method (FRM): every (reaction, site) pair carries at most one
// scheduled occurrence time, and state changes must be able to
// reschedule or cancel events cheaply.
//
// FRM schedules only at or after its clock, the time of the last event
// it popped, so the queue is a monotone radix heap (Ahuja, Mehlhorn,
// Orlin & Tarjan, J. ACM 37(2), 1990) over the IEEE-754 bits of
// non-negative float64 times, whose integer order is their numeric
// order. An event sits in bucket bits.Len64(timeBits ^ lastBits), where
// lastBits are the bits of the last popped time: bucket 0 holds the
// events at that time, and bucket b ≥ 1 those whose highest bit that
// differs from it is bit b-1. Neither time has the sign bit set, so b
// is at most 63, and a one-word mask of the non-empty buckets finds the
// lowest one. Schedule and Remove are O(1), an append and a swap-remove
// through a dense key → (bucket, slot) index. Pop takes the least event
// of the lowest non-empty bucket and moves that bucket's other events
// into lower buckets around it, so an event moves at most 63 times
// between its Schedule and its Pop.
//
// Keys live in a dense space [0, keySpace) fixed at construction (FRM
// uses rt·N + site), so the index is a flat slice rather than a hash
// map. Pop returns the least (time, key) and Snapshot lists the events
// sorted by (time, key), so neither the order of equal times nor
// checkpoint bytes depend on where events sit in the buckets.
package eventq

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// maxBits is the bit pattern of +Inf; every larger pattern is a NaN or
// has the sign bit set (a negative time or −0).
const maxBits = 0x7ff0000000000000

// Event is a scheduled reaction occurrence.
type Event struct {
	Time float64
	Key  int64 // caller-defined identity in [0, keySpace), e.g. rt*N + site
}

// compare orders events by (time, key).
func compare(a, b Event) int {
	return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Key, b.Key))
}

// place is a key's position: bucket+1 (0 = absent) and slot in it.
type place struct{ bucket, slot uint32 }

// Queue is an indexed monotone priority queue of events. Each Key
// appears at most once; Schedule replaces an existing event for the
// same key.
type Queue struct {
	buckets [64][]Event
	full    uint64  // bit b set iff bucket b is non-empty
	pos     []place // key -> position
	last    uint64  // bits of the last popped time; 0 before the first Pop
	n       int
}

// New returns an empty queue accepting keys in [0, keySpace).
func New(keySpace int) *Queue {
	if keySpace < 0 {
		panic(fmt.Sprintf("eventq: negative key space %d", keySpace))
	}
	return &Queue{pos: make([]place, keySpace)}
}

// KeySpace returns the exclusive upper bound on keys.
func (q *Queue) KeySpace() int { return len(q.pos) }

// Reset empties the queue, keeping the buckets' capacity and the
// position index allocation — the queue behaves as freshly
// constructed. Engine Reset uses it to rewind FRM without reallocating
// the O(keySpace) index.
func (q *Queue) Reset() {
	for b, bucket := range q.buckets {
		for _, ev := range bucket {
			q.pos[ev.Key] = place{}
		}
		q.buckets[b] = bucket[:0]
	}
	q.full, q.last, q.n = 0, 0, 0
}

// Len returns the number of scheduled events.
func (q *Queue) Len() int { return q.n }

// Snapshot appends the events sorted by (time, key) to dst and returns
// it. The order is a function of the scheduled set alone, so saved
// queues compare byte for byte.
func (q *Queue) Snapshot(dst []Event) []Event {
	start := len(dst)
	for _, bucket := range q.buckets {
		dst = append(dst, bucket...)
	}
	slices.SortFunc(dst[start:], compare)
	return dst
}

// Restore replaces the queue's contents with the given events, as
// though each were scheduled on an empty queue. Events must have keys
// in [0, KeySpace()) with no duplicates and non-negative, non-NaN
// times, and must be sorted by (time, key), the order Snapshot writes;
// otherwise Restore leaves the queue empty and returns an error.
func (q *Queue) Restore(events []Event) error {
	q.Reset()
	for i, ev := range events {
		var err error
		switch {
		case ev.Key < 0 || ev.Key >= int64(len(q.pos)):
			err = fmt.Errorf("eventq: restored key %d outside [0,%d)", ev.Key, len(q.pos))
		case q.pos[ev.Key].bucket != 0:
			err = fmt.Errorf("eventq: duplicate restored key %d", ev.Key)
		case math.Float64bits(ev.Time) > maxBits:
			err = fmt.Errorf("eventq: restored event %d has time %v", i, ev.Time)
		case i > 0 && compare(events[i-1], ev) >= 0:
			err = fmt.Errorf("eventq: restored event %d %+v does not follow event %d %+v in (time, key) order",
				i, ev, i-1, events[i-1])
		}
		if err != nil {
			q.Reset()
			return err
		}
		q.push(ev)
		q.n++
	}
	return nil
}

// Schedule inserts an event, or reschedules the existing event with the
// same key to the new time. It panics on a time earlier than the last
// popped one, or on a NaN or negative time, −0 included: the bucket
// arithmetic orders only times at or after the last pop.
func (q *Queue) Schedule(key int64, time float64) {
	tb := math.Float64bits(time)
	if tb < q.last || tb > maxBits {
		panic(fmt.Sprintf("eventq: time %v scheduled below the last popped time %v, or not a non-negative number",
			time, math.Float64frombits(q.last)))
	}
	if p := q.pos[key]; p.bucket != 0 {
		q.take(p)
	} else {
		q.n++
	}
	q.push(Event{Time: time, Key: key})
}

// Remove cancels the event with the given key, reporting whether it was
// present.
func (q *Queue) Remove(key int64) bool {
	p := q.pos[key]
	if p.bucket == 0 {
		return false
	}
	q.take(p)
	q.pos[key] = place{}
	q.n--
	return true
}

// Contains reports whether an event with the given key is scheduled.
func (q *Queue) Contains(key int64) bool {
	return q.pos[key].bucket != 0
}

// Pop removes and returns the least event by (time, key). ok is false
// when empty. When the lowest non-empty bucket is not bucket 0, the
// popped time becomes the new last time and the bucket's other events
// move into lower buckets around it.
func (q *Queue) Pop() (Event, bool) {
	if q.n == 0 {
		return Event{}, false
	}
	b := bits.TrailingZeros64(q.full)
	bucket := q.buckets[b]
	// Queued times are never NaN, so plain comparisons order them; the
	// NaN handling of compare would cost a call per event scanned.
	least := 0
	for i := 1; i < len(bucket); i++ {
		if e, m := bucket[i], bucket[least]; e.Time < m.Time || e.Time == m.Time && e.Key < m.Key {
			least = i
		}
	}
	ev := bucket[least]
	q.Remove(ev.Key)
	if b > 0 {
		q.last = math.Float64bits(ev.Time)
		rest := q.buckets[b]
		q.buckets[b] = rest[:0]
		q.full &^= 1 << b
		for _, moved := range rest {
			q.push(moved)
		}
	}
	return ev, true
}

// push appends ev to the bucket its time selects and indexes it.
func (q *Queue) push(ev Event) {
	b := bits.Len64(math.Float64bits(ev.Time) ^ q.last)
	q.buckets[b] = append(q.buckets[b], ev)
	q.full |= 1 << b
	q.pos[ev.Key] = place{bucket: uint32(b + 1), slot: uint32(len(q.buckets[b]) - 1)}
}

// take swap-removes the event at p from its bucket, re-indexing the
// event that fills the slot; the caller clears or rewrites the removed
// key's own index entry.
func (q *Queue) take(p place) {
	bucket := q.buckets[p.bucket-1]
	last := len(bucket) - 1
	if moved := bucket[last]; int(p.slot) < last {
		bucket[p.slot] = moved
		q.pos[moved.Key].slot = p.slot
	}
	q.buckets[p.bucket-1] = bucket[:last]
	if last == 0 {
		q.full &^= 1 << (p.bucket - 1)
	}
}
