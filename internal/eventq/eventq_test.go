package eventq

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"parsurf/internal/rng"
)

func TestEmpty(t *testing.T) {
	q := New(64)
	if q.Len() != 0 {
		t.Fatal("fresh queue not empty")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
	if q.Remove(5) {
		t.Fatal("Remove on empty returned true")
	}
}

func TestOrdering(t *testing.T) {
	q := New(64)
	times := []float64{5, 1, 3, 2, 4}
	for i, tm := range times {
		q.Schedule(int64(i), tm)
	}
	prev := -1.0
	for q.Len() > 0 {
		ev, _ := q.Pop()
		if ev.Time < prev {
			t.Fatalf("pop out of order: %v after %v", ev.Time, prev)
		}
		prev = ev.Time
	}
}

func TestScheduleReplaces(t *testing.T) {
	q := New(64)
	q.Schedule(7, 10)
	q.Schedule(7, 1) // move earlier
	if q.Len() != 1 {
		t.Fatalf("Len = %d after reschedule", q.Len())
	}
	if evs := q.Snapshot(nil); len(evs) != 1 || evs[0] != (Event{Key: 7, Time: 1}) {
		t.Fatalf("queue after reschedule = %+v", evs)
	}
	q.Schedule(7, 20) // move later
	ev, _ := q.Pop()
	if ev.Time != 20 || ev.Key != 7 {
		t.Fatalf("pop = %+v", ev)
	}
}

func TestRemove(t *testing.T) {
	q := New(64)
	for i := int64(0); i < 10; i++ {
		q.Schedule(i, float64(10-i))
	}
	if !q.Remove(0) { // time 10, somewhere in the heap
		t.Fatal("Remove(0) failed")
	}
	if q.Contains(0) {
		t.Fatal("removed key still present")
	}
	if q.Remove(0) {
		t.Fatal("double Remove succeeded")
	}
	// Remaining events must still come out ordered.
	prev := -1.0
	count := 0
	for q.Len() > 0 {
		ev, _ := q.Pop()
		if ev.Time < prev {
			t.Fatal("order violated after Remove")
		}
		prev = ev.Time
		count++
	}
	if count != 9 {
		t.Fatalf("drained %d events, want 9", count)
	}
}

// Property: popping everything yields times in non-decreasing order and
// exactly the scheduled set, under a random mix of schedules, updates
// and removals.
func TestQuickHeapInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		q := New(64)
		expected := make(map[int64]float64)
		for op := 0; op < 300; op++ {
			key := int64(src.Intn(40))
			switch src.Intn(3) {
			case 0, 1:
				tm := src.Float64() * 100
				q.Schedule(key, tm)
				expected[key] = tm
			case 2:
				removed := q.Remove(key)
				if _, want := expected[key]; want != removed {
					return false
				}
				delete(expected, key)
			}
		}
		if q.Len() != len(expected) {
			return false
		}
		var wantTimes []float64
		for _, tm := range expected {
			wantTimes = append(wantTimes, tm)
		}
		sort.Float64s(wantTimes)
		for i := 0; q.Len() > 0; i++ {
			ev, _ := q.Pop()
			if ev.Time != wantTimes[i] {
				return false
			}
			if want, ok := expected[ev.Key]; !ok || want != ev.Time {
				return false
			}
			delete(expected, ev.Key)
		}
		return len(expected) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRemove(b *testing.B) {
	q := New(10000)
	src := rng.New(1)
	for i := 0; i < b.N; i++ {
		key := int64(i % 10000)
		q.Schedule(key, src.Float64()*1000)
		if i%3 == 0 {
			q.Remove(int64(src.Intn(10000)))
		}
	}
}

func BenchmarkPop(b *testing.B) {
	src := rng.New(2)
	q := New(b.N)
	for i := 0; i < b.N; i++ {
		q.Schedule(int64(i), src.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Pop()
	}
}

func TestKeySpace(t *testing.T) {
	q := New(16)
	if q.KeySpace() != 16 {
		t.Fatalf("KeySpace = %d", q.KeySpace())
	}
	q.Schedule(15, 1) // top of the range is valid
	if !q.Contains(15) {
		t.Fatal("key 15 lost")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range key did not panic")
		}
	}()
	q.Schedule(16, 1)
}

// Restore must refuse an event array that breaks parent ≤ child: a
// queue restored from it would pop events out of time order.
func TestRestoreRejectsBrokenHeap(t *testing.T) {
	q := New(16)
	for k, tm := range []float64{3, 1, 4, 1.5, 9, 2.6} {
		q.Schedule(int64(k), tm)
	}
	snap := q.Snapshot(nil)
	if err := New(16).Restore(snap); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	// Swap the root with a later child: still a permutation of the
	// events, no longer a heap.
	bad := append([]Event(nil), snap...)
	bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
	r := New(16)
	if err := r.Restore(bad); err == nil {
		t.Fatal("snapshot with a child earlier than its parent restored without error")
	}
	if r.Len() != 0 {
		t.Fatalf("failed Restore left %d events", r.Len())
	}
}

// Schedule must refuse a time it cannot order: below the last popped
// time, NaN, or negative (−0 included, whose sign bit would sort it
// above +Inf).
func TestSchedulePanicsOnUnorderableTime(t *testing.T) {
	for _, tc := range []struct {
		name string
		time float64
	}{
		{"below the last pop", 1.5},
		{"NaN", math.NaN()},
		{"-0", math.Copysign(0, -1)},
		{"negative", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := New(8)
			q.Schedule(0, 2)
			q.Schedule(1, 3)
			q.Pop()
			defer func() {
				if recover() == nil {
					t.Fatalf("Schedule at %v after a pop at 2 did not panic", tc.time)
				}
			}()
			q.Schedule(2, tc.time)
		})
	}
}

// Restore loads the sorted array Snapshot writes, and refuses the array
// of a binary heap that is not sorted, the layout of a queue that no
// reachable payload holds any more.
func TestRestoreLoadsHeapAndSortedLayouts(t *testing.T) {
	// A valid heap that is not sorted: every parent is no later than
	// its children, and the tie at time 2 is out of key order.
	heap := []Event{{1, 6}, {3, 1}, {2, 4}, {5, 0}, {4, 5}, {2, 2}, {7, 3}}
	sorted := slices.SortedFunc(slices.Values(heap), compare)
	t.Run("heap", func(t *testing.T) {
		q := New(8)
		if err := q.Restore(heap); err == nil {
			t.Fatal("restored an unsorted heap array")
		}
		if q.Len() != 0 {
			t.Fatalf("failed Restore left %d events", q.Len())
		}
	})
	t.Run("tie out of key order", func(t *testing.T) {
		bad := slices.Clone(sorted)
		i := slices.Index(bad, Event{2, 2})
		bad[i], bad[i+1] = bad[i+1], bad[i]
		if err := New(8).Restore(bad); err == nil {
			t.Fatalf("restored %v, whose tie at time 2 is out of key order", bad)
		}
	})
	t.Run("sorted", func(t *testing.T) {
		q := New(8)
		if err := q.Restore(sorted); err != nil {
			t.Fatal(err)
		}
		if snap := q.Snapshot(nil); !slices.Equal(snap, sorted) {
			t.Fatalf("Snapshot = %v, want %v", snap, sorted)
		}
		for _, want := range sorted {
			if got, ok := q.Pop(); !ok || got != want {
				t.Fatalf("Pop = %+v,%v, want %+v", got, ok, want)
			}
		}
	})
}

// Restore must refuse a time the queue cannot order, even where the
// order check alone would pass it.
func TestRestoreRejectsUnorderableTimes(t *testing.T) {
	for _, tm := range []float64{math.NaN(), math.Copysign(0, -1), -1} {
		q := New(8)
		if err := q.Restore([]Event{{0, 1}, {tm, 2}}); err == nil {
			t.Fatalf("restored a leaf at time %v", tm)
		}
		if err := q.Restore([]Event{{tm, 1}}); err == nil {
			t.Fatalf("restored a lone event at time %v", tm)
		}
		if q.Len() != 0 {
			t.Fatalf("failed Restore left %d events", q.Len())
		}
	}
}

// BenchmarkHold is the classic hold model at the size of FRM's queue on
// a ZGB lattice: about 5,000 live events of 10,000 keys. Each operation
// pops the earliest event, reschedules its key at now+Exp(1), and
// toggles one random key (removing it if scheduled, scheduling it at
// now+Exp(1) if not), the remove/insert mix of an FRM refresh.
func BenchmarkHold(b *testing.B) {
	const keys = 10000
	src := rng.New(4)
	q := New(keys)
	for k := int64(0); k < keys; k += 2 {
		q.Schedule(k, src.Exp(1))
	}
	hold := func() {
		ev, _ := q.Pop()
		q.Schedule(ev.Key, ev.Time+src.Exp(1))
		if k := int64(src.Intn(keys)); !q.Remove(k) {
			q.Schedule(k, ev.Time+src.Exp(1))
		}
	}
	for i := 0; i < 10*keys; i++ {
		hold()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hold()
	}
}
