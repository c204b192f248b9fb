package fenwick

import (
	"math"
	"testing"
	"testing/quick"

	"parsurf/internal/rng"
)

// withWeights builds a tree holding w through New and one Add per slot.
func withWeights(w []float64) *Tree {
	tr := New(len(w))
	for i, v := range w {
		tr.Add(i, v)
	}
	return tr
}

func TestEmptyAndZero(t *testing.T) {
	tr := New(0)
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Fatal("empty tree not empty")
	}
	tr = New(5)
	if tr.Total() != 0 {
		t.Fatal("fresh tree has weight")
	}
}

func TestAddGetSet(t *testing.T) {
	tr := New(10)
	tr.Add(3, 2.5)
	tr.Add(3, 1.5)
	if got := tr.Get(3); got != 4 {
		t.Fatalf("Get(3) = %v", got)
	}
	tr.Set(3, 1)
	if got := tr.Get(3); got != 1 {
		t.Fatalf("after Set, Get(3) = %v", got)
	}
	if got := tr.Get(0); got != 0 {
		t.Fatalf("untouched slot = %v", got)
	}
}

func TestPrefixSum(t *testing.T) {
	w := []float64{1, 2, 3, 4, 5}
	tr := withWeights(w)
	want := 0.0
	for i := 0; i <= len(w); i++ {
		if got := tr.PrefixSum(i); math.Abs(got-want) > 1e-12 {
			t.Fatalf("PrefixSum(%d) = %v, want %v", i, got, want)
		}
		if i < len(w) {
			want += w[i]
		}
	}
	if tr.Total() != 15 {
		t.Fatalf("Total = %v", tr.Total())
	}
}

func TestSearchBasic(t *testing.T) {
	tr := withWeights([]float64{1, 0, 2, 3})
	cases := []struct {
		target float64
		want   int
	}{
		{0, 0}, {0.99, 0},
		{1.0, 2}, {2.99, 2},
		{3.0, 3}, {5.9, 3},
	}
	for _, c := range cases {
		if got := tr.Search(c.target); got != c.want {
			t.Errorf("Search(%v) = %d, want %d", c.target, got, c.want)
		}
	}
}

func TestSearchClampBeyondTotal(t *testing.T) {
	tr := withWeights([]float64{1, 2, 0, 0})
	if got := tr.Search(3.0000001); got != 1 {
		t.Fatalf("Search beyond total = %d, want last positive slot 1", got)
	}
}

func TestSearchSkipsZeroWeights(t *testing.T) {
	tr := withWeights([]float64{0, 0, 5, 0})
	for _, target := range []float64{0, 1, 4.999} {
		if got := tr.Search(target); got != 2 {
			t.Fatalf("Search(%v) = %d, want 2", target, got)
		}
	}
}

func TestSearchDistribution(t *testing.T) {
	w := []float64{1, 3, 0, 6}
	tr := withWeights(w)
	src := rng.New(10)
	const draws = 100000
	counts := make([]int, len(w))
	for i := 0; i < draws; i++ {
		counts[tr.Search(src.Float64()*tr.Total())]++
	}
	if counts[2] != 0 {
		t.Fatalf("zero-weight slot drawn %d times", counts[2])
	}
	for i, wi := range w {
		if wi == 0 {
			continue
		}
		want := wi / 10 * draws
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Fatalf("slot %d drawn %d times, want ~%v", i, counts[i], want)
		}
	}
}

func TestPanics(t *testing.T) {
	tr := New(3)
	for _, f := range []func(){
		func() { tr.Add(-1, 1) },
		func() { tr.Add(3, 1) },
		func() { tr.PrefixSum(-1) },
		func() { tr.PrefixSum(4) },
		func() { New(0).Search(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestReset(t *testing.T) {
	tr := withWeights([]float64{1, 2, 3})
	tr.Reset()
	if tr.Total() != 0 {
		t.Fatal("Reset left weight")
	}
	tr.Add(1, 5)
	if tr.Get(1) != 5 || tr.Total() != 5 {
		t.Fatal("tree unusable after Reset")
	}
}

// Property: against a naive prefix-sum oracle under random updates.
func TestQuickAgainstNaive(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%50) + 1
		src := rng.New(seed)
		tr := New(n)
		naive := make([]float64, n)
		for op := 0; op < 100; op++ {
			i := src.Intn(n)
			delta := src.Float64()*4 - 1
			if naive[i]+delta < 0 {
				delta = -naive[i] // keep weights non-negative
			}
			tr.Add(i, delta)
			naive[i] += delta
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			if math.Abs(tr.PrefixSum(i)-sum) > 1e-9 {
				return false
			}
			sum += naive[i]
		}
		return math.Abs(tr.Total()-sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Search(t) returns i with PrefixSum(i) <= t < PrefixSum(i+1)
// for in-range targets.
func TestQuickSearchInvariant(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%30) + 1
		src := rng.New(seed)
		w := make([]float64, n)
		for i := range w {
			if src.Bernoulli(0.3) {
				w[i] = 0
			} else {
				w[i] = src.Float64() * 5
			}
		}
		tr := withWeights(w)
		if tr.Total() == 0 {
			return true
		}
		for k := 0; k < 50; k++ {
			target := src.Float64() * tr.Total() * 0.999999
			i := tr.Search(target)
			if i < 0 || i >= n {
				return false
			}
			if !(tr.PrefixSum(i) <= target+1e-9 && target < tr.PrefixSum(i+1)+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	tr := New(1 << 16)
	for i := 0; i < b.N; i++ {
		tr.Add(i&(1<<16-1), 1)
	}
}

func BenchmarkSearch(b *testing.B) {
	src := rng.New(1)
	w := make([]float64, 1<<16)
	for i := range w {
		w[i] = src.Float64()
	}
	tr := withWeights(w)
	total := tr.Total()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(src.Float64() * total)
	}
}

// Rebuild must clear accumulated floating-point drift: after many
// interleaved signed updates the tree totals drift away from the true
// leaf sums, and a rebuild from true values restores them exactly.
func TestRebuildClearsDrift(t *testing.T) {
	const n = 8
	tr := New(n)
	leaves := make([]float64, n)
	// Updates with awkward magnitudes accumulate representation error.
	for i := 0; i < 200000; i++ {
		slot := i % n
		delta := 0.1 * float64(1+i%7)
		if i%2 == 1 {
			delta = -delta
		}
		tr.Add(slot, delta)
		leaves[slot] += delta
	}
	if tr.Adds() != 200000 {
		t.Fatalf("Adds = %d, want 200000", tr.Adds())
	}
	tr.Rebuild(func(i int) float64 { return leaves[i] })
	if tr.Adds() != 0 {
		t.Fatalf("Adds = %d after Rebuild, want 0", tr.Adds())
	}
	for i := 0; i < n; i++ {
		// Get is a prefix-sum difference; after Rebuild from exact
		// leaves the reconstruction error is at most a few ulps of the
		// running sums, far below the 1e-9 slack.
		if math.Abs(tr.Get(i)-leaves[i]) > 1e-9 {
			t.Fatalf("leaf %d = %v, want %v", i, tr.Get(i), leaves[i])
		}
	}
	total := 0.0
	for _, v := range leaves {
		total += v
	}
	if math.Abs(tr.Total()-total) > 1e-9 {
		t.Fatalf("Total = %v, want %v", tr.Total(), total)
	}
}

func TestNeedsRebuildThreshold(t *testing.T) {
	tr := New(4)
	if tr.NeedsRebuild() {
		t.Fatal("fresh tree wants a rebuild")
	}
	for i := uint64(0); i < RebuildEvery; i++ {
		tr.Add(int(i%4), 1)
	}
	if !tr.NeedsRebuild() {
		t.Fatal("threshold did not trip")
	}
	tr.Rebuild(func(i int) float64 { return 0 })
	if tr.NeedsRebuild() {
		t.Fatal("rebuild did not reset the counter")
	}
	tr.Add(0, 1)
	tr.Reset()
	if tr.Adds() != 0 {
		t.Fatal("Reset did not clear the counter")
	}
}

// A state captured after many interleaved signed Adds restores, drift
// and all, against its true leaf values: the check admits drift.
func TestRestoreAcceptsDriftedState(t *testing.T) {
	const n = 7
	tr := New(n)
	leaves := make([]float64, n)
	src := rng.New(9)
	for i := 0; i < 200000; i++ {
		slot := src.Intn(n)
		delta := 0.1 * float64(1+src.Intn(7))
		if leaves[slot] >= delta && src.Intn(2) == 0 {
			delta = -delta
		}
		tr.Add(slot, delta)
		leaves[slot] += delta
	}
	nodes, adds := tr.State(nil)
	back := New(n)
	if err := back.Restore(nodes, adds, func(i int) float64 { return leaves[i] }, 0.7*200000); err != nil {
		t.Fatalf("drifted state rejected: %v", err)
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(back.Get(i)) != math.Float64bits(tr.Get(i)) {
			t.Fatalf("restored weight %d is %v, saved %v", i, back.Get(i), tr.Get(i))
		}
	}
	if back.Adds() != adds {
		t.Fatalf("restored Adds %d, saved %d", back.Adds(), adds)
	}
}

// Restore rejects a node that is not finite, a nonzero unused slot and
// a weight further from its true value than drift can reach.
func TestRestoreRejectsCorruptNodes(t *testing.T) {
	leaves := []float64{1, 2, 3, 4, 5}
	tr := withWeights(leaves)
	good, _ := tr.State(nil)
	leaf := func(i int) float64 { return leaves[i] }
	if err := New(len(leaves)).Restore(good, 0, leaf, 15); err != nil {
		t.Fatalf("own state rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		node int
		v    float64
	}{
		{"NaN", 5, math.NaN()},
		{"+Inf", 4, math.Inf(1)},
		{"-Inf", 1, math.Inf(-1)},
		{"unused slot", 0, 1},
		{"wrong weight", 5, 1e6},
		{"slightly wrong weight", 3, good[3] + 1e-3},
	} {
		nodes := append([]float64(nil), good...)
		nodes[tc.node] = tc.v
		if err := New(len(leaves)).Restore(nodes, 0, leaf, 15); err == nil {
			t.Errorf("%s: node %d = %v restored without error", tc.name, tc.node, tc.v)
		}
	}
	if err := New(len(leaves)).Restore(good[:3], 0, leaf, 15); err == nil {
		t.Error("short state restored without error")
	}
}
