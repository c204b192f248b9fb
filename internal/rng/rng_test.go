package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d times in 1000 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		t.Fatal("zero seed produced all-zero state")
	}
	// Must still produce varied output.
	first := s.Uint64()
	varied := false
	for i := 0; i < 10; i++ {
		if s.Uint64() != first {
			varied = true
		}
	}
	if !varied {
		t.Fatal("zero-seeded generator is constant")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(11)
	for _, n := range []int{1, 2, 3, 5, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d: count %d deviates from %v by >5 sigma", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	s := New(17)
	for i := 0; i < 10000; i++ {
		v := s.Uint64n(64)
		if v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(19)
	for _, rate := range []float64{0.5, 1, 3, 10} {
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += s.Exp(rate)
		}
		mean := sum / n
		want := 1 / rate
		if math.Abs(mean-want)/want > 0.02 {
			t.Fatalf("Exp(%v) mean = %v, want ~%v", rate, mean, want)
		}
	}
}

func TestExpPositive(t *testing.T) {
	s := New(21)
	for i := 0; i < 100000; i++ {
		if v := s.Exp(2.5); v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Exp produced %v", v)
		}
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestSplitIndependence(t *testing.T) {
	parent := New(23)
	a := parent.Split(0)
	b := parent.Split(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams collided %d/1000 draws", same)
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	parent := New(29)
	before := parent.State()
	_ = parent.Split(5)
	if parent.State() != before {
		t.Fatal("Split advanced the parent state")
	}
}

func TestSplitDeterministic(t *testing.T) {
	p1 := New(31)
	p2 := New(31)
	a := p1.Split(9)
	b := p2.Split(9)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split(9) of identical parents diverged")
		}
	}
}

func TestPerm(t *testing.T) {
	s := New(37)
	p := make([]int, 20)
	s.Perm(p)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(41)
	const n, draws = 5, 50000
	counts := make([]int, n)
	p := make([]int, n)
	for i := 0; i < draws; i++ {
		s.Perm(p)
		counts[p[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Perm first-element bucket %d: %d vs %v", i, c, want)
		}
	}
}

func TestBernoulli(t *testing.T) {
	s := New(43)
	if s.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", p)
	}
}

func TestStateRestore(t *testing.T) {
	s := New(47)
	for i := 0; i < 17; i++ {
		s.Uint64()
	}
	saved := s.State()
	want := make([]uint64, 50)
	for i := range want {
		want[i] = s.Uint64()
	}
	s.Restore(saved)
	for i := range want {
		if got := s.Uint64(); got != want[i] {
			t.Fatalf("restored sequence diverged at %d", i)
		}
	}
}

// Property: Intn never leaves its range, for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16%1000) + 1
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Perm is always a valid permutation.
func TestQuickPermValid(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%64) + 1
		s := New(seed)
		p := make([]int, n)
		s.Perm(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Split(id) children with distinct ids differ in their first draw
// almost always; identical ids match exactly.
func TestQuickSplitConsistent(t *testing.T) {
	f := func(seed, id uint64) bool {
		p := New(seed)
		a := p.Split(id)
		b := p.Split(id)
		return a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Intn(10007)
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	var sink float64
	b.Run("source", func(b *testing.B) {
		s := New(1)
		for i := 0; i < b.N; i++ {
			sink += s.Exp(3)
		}
	})
	b.Run("fill", func(b *testing.B) {
		s := New(1)
		buf := make([]float64, 256)
		for i := 0; i < b.N; i += len(buf) {
			s.FillExp(buf, 3)
			sink += buf[0]
		}
	})
	_ = sink
}

// FillUint64 must reproduce exactly the sequence of successive Uint64
// calls, leaving the generator in the same state.
func TestFillUint64MatchesSequential(t *testing.T) {
	a, b := New(77), New(77)
	got := make([]uint64, 1000)
	a.FillUint64(got)
	for i, u := range got {
		if want := b.Uint64(); u != want {
			t.Fatalf("FillUint64[%d] = %d, want %d", i, u, want)
		}
	}
	if a.State() != b.State() {
		t.Fatal("states diverged after fill")
	}
}

// FillExp must produce the values and leave the state of sequential
// Exp calls, across its stack-buffer chunk boundaries, with uniform
// draws interleaved between fills.
func TestFillFloat64AndExpMatchSequential(t *testing.T) {
	a, b := New(78), New(78)
	for _, n := range []int{0, 1, 127, 128, 129, 257, 300} {
		es := make([]float64, n)
		a.FillExp(es, 2.5)
		for i, e := range es {
			if want := b.Exp(2.5); e != want {
				t.Fatalf("FillExp(%d)[%d] = %v, want %v", n, i, e, want)
			}
		}
		if got, want := a.Float64(), b.Float64(); got != want {
			t.Fatalf("Float64 after FillExp(%d) = %v, want %v", n, got, want)
		}
	}
	if a.State() != b.State() {
		t.Fatal("states diverged after FillExp")
	}
}

func BenchmarkFillUint64(b *testing.B) {
	src := New(1)
	buf := make([]uint64, 256)
	b.SetBytes(256 * 8)
	for i := 0; i < b.N; i++ {
		src.FillUint64(buf)
	}
}
