package lattice

import (
	"fmt"
	"testing"
	"testing/quick"

	"parsurf/internal/rng"
)

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	l := New(7, 5)
	for s := 0; s < l.N(); s++ {
		x, y := l.Coords(s)
		if got := l.Index(x, y); got != s {
			t.Fatalf("round trip failed: %d -> (%d,%d) -> %d", s, x, y, got)
		}
	}
}

func TestIndexWraps(t *testing.T) {
	l := New(10, 4)
	cases := []struct {
		x, y, want int
	}{
		{0, 0, 0},
		{10, 0, 0},  // wrap x
		{-1, 0, 9},  // negative x
		{0, 4, 0},   // wrap y
		{0, -1, 30}, // negative y: row 3 begins at 30
		{-11, -5, l.Index(9, 3)},
	}
	for _, c := range cases {
		if got := l.Index(c.x, c.y); got != c.want {
			t.Errorf("Index(%d,%d) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestTranslate(t *testing.T) {
	l := New(6, 6)
	s := l.Index(5, 5)
	if got := l.Translate(s, Vec{1, 0}); got != l.Index(0, 5) {
		t.Errorf("east from right edge: got %d", got)
	}
	if got := l.Translate(s, Vec{0, 1}); got != l.Index(5, 0) {
		t.Errorf("north from top edge: got %d", got)
	}
	if got := l.Translate(s, Vec{-7, -13}); got != l.Index(4, 4) {
		t.Errorf("long negative: got %d", got)
	}
}

// Translation invariance: Translate(Translate(s,v),w) == Translate(s,v+w).
func TestQuickTranslateComposes(t *testing.T) {
	l := New(13, 9)
	f := func(s16 uint16, a, b int8) bool {
		s := int(s16) % l.N()
		v := Vec{int(a % 5), int(b % 5)}
		w := Vec{int(b % 7), int(a % 3)}
		return l.Translate(l.Translate(s, v), w) == l.Translate(s, v.Add(w))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Neg inverts translation.
func TestQuickTranslateNeg(t *testing.T) {
	l := New(8, 11)
	f := func(s16 uint16, a, b int8) bool {
		s := int(s16) % l.N()
		v := Vec{int(a), int(b)}
		return l.Translate(l.Translate(s, v), v.Neg()) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// checkFillTranslate compares the FillTranslate table of v with
// Translate at every site and reports the first mismatch.
func checkFillTranslate(l *Lattice, v Vec) error {
	table := make([]int32, l.N())
	l.FillTranslate(table, v)
	for s, got := range table {
		if want := l.Translate(s, v); int(got) != want {
			return fmt.Errorf("%dx%d %v: site %d maps to %d, want %d", l.L0, l.L1, v, s, got, want)
		}
	}
	return nil
}

// FillTranslate must equal Translate site by site, on non-square and
// degenerate lattices too (a swapped x/y would pass every square case),
// for offsets reaching three times each extent in both directions.
func TestFillTranslateMatchesTranslate(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {3, 5}, {5, 3}, {64, 32}} {
		l := New(dims[0], dims[1])
		for _, dy := range testOffsets(l.L1) {
			for _, dx := range testOffsets(l.L0) {
				if err := checkFillTranslate(l, Vec{dx, dy}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// testOffsets returns the offsets in [-3e, 3e] for an extent e: all of
// them for small extents, otherwise every multiple of e with its two
// neighbours (where the wrap changes) and the midpoints between them.
func testOffsets(e int) []int {
	var out []int
	for d := -3 * e; d <= 3*e; d++ {
		if r := ((d % e) + e) % e; e <= 8 || r <= 1 || r == e-1 || r == e/2 {
			out = append(out, d)
		}
	}
	return out
}

func TestFillTranslatePanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FillTranslate accepted a short table")
		}
	}()
	New(3, 4).FillTranslate(make([]int32, 11), Vec{1, 0})
}

// FuzzFillTranslate checks FillTranslate against Translate on random
// extents in 1..64 and random offsets.
func FuzzFillTranslate(f *testing.F) {
	f.Add(uint8(5), uint8(3), int16(-7), int16(4))
	f.Add(uint8(1), uint8(64), int16(0), int16(-129))
	f.Add(uint8(64), uint8(1), int16(200), int16(0))
	f.Fuzz(func(t *testing.T, l0, l1 uint8, dx, dy int16) {
		l := New(int(l0)%64+1, int(l1)%64+1)
		if err := checkFillTranslate(l, Vec{int(dx), int(dy)}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestNeighbourhoodShapes(t *testing.T) {
	if got := len(Axes4()); got != 4 {
		t.Errorf("Axes4 size %d, want 4", got)
	}
}

func TestNeighbourhoodDistinct(t *testing.T) {
	seen := make(map[Vec]bool)
	for _, v := range Axes4() {
		if seen[v] {
			t.Errorf("duplicate offset %v", v)
		}
		seen[v] = true
	}
}

func TestConfigBasics(t *testing.T) {
	l := New(4, 3)
	c := NewConfig(l)
	if c.Lattice() != l {
		t.Fatal("Lattice() mismatch")
	}
	for s := 0; s < l.N(); s++ {
		if c.Get(s) != 0 {
			t.Fatal("fresh config not vacant")
		}
	}
	c.Set(5, 2)
	if c.Get(5) != 2 {
		t.Fatal("Set/Get failed")
	}
	c.SetXY(1, 1, 3)
	if c.Get(l.Index(1, 1)) != 3 {
		t.Fatal("SetXY failed")
	}
	if c.GetXY(1, 1) != 3 {
		t.Fatal("GetXY failed")
	}
}

func TestConfigFillCountCoverage(t *testing.T) {
	l := New(10, 10)
	c := NewConfig(l)
	c.Fill(1)
	if c.Count(1) != 100 || c.Count(0) != 0 {
		t.Fatal("Fill/Count failed")
	}
	if c.Coverage(1) != 1.0 {
		t.Fatal("Coverage failed")
	}
	c.Set(0, 2)
	if c.Count(1) != 99 || c.Count(2) != 1 {
		t.Fatal("Count after Set failed")
	}
	counts := c.CountAll(3)
	if counts[1] != 99 || counts[2] != 1 || counts[0] != 0 {
		t.Fatalf("CountAll = %v", counts)
	}
}

func TestCountAllGrows(t *testing.T) {
	l := New(2, 2)
	c := NewConfig(l)
	c.Set(0, 7)
	counts := c.CountAll(2) // deliberately too small
	if len(counts) < 8 || counts[7] != 1 {
		t.Fatalf("CountAll did not grow: %v", counts)
	}
}

func TestCloneIndependent(t *testing.T) {
	l := New(3, 3)
	c := NewConfig(l)
	c.Set(4, 1)
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	d.Set(4, 2)
	if c.Get(4) != 1 {
		t.Fatal("clone shares storage")
	}
	if c.Equal(d) {
		t.Fatal("Equal missed difference")
	}
}

func TestCopyFrom(t *testing.T) {
	l := New(3, 3)
	a, b := NewConfig(l), NewConfig(l)
	b.Set(2, 5)
	a.CopyFrom(b)
	if !a.Equal(b) {
		t.Fatal("CopyFrom failed")
	}
	other := NewConfig(New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom size mismatch did not panic")
		}
	}()
	a.CopyFrom(other)
}

func TestRandomizeWeights(t *testing.T) {
	l := New(100, 100)
	c := NewConfig(l)
	src := rng.New(5)
	c.Randomize([]float64{1, 1, 2}, src.Float64)
	counts := c.CountAll(3)
	n := float64(l.N())
	if f := float64(counts[2]) / n; f < 0.45 || f > 0.55 {
		t.Fatalf("species 2 frequency %v, want ~0.5", f)
	}
	if f := float64(counts[0]) / n; f < 0.20 || f > 0.30 {
		t.Fatalf("species 0 frequency %v, want ~0.25", f)
	}
}

func TestRandomizePanicsOnZeroWeight(t *testing.T) {
	c := NewConfig(New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Randomize([]float64{0, 0}, func() float64 { return 0.5 })
}

func TestString(t *testing.T) {
	l := New(3, 2)
	c := NewConfig(l)
	c.SetXY(1, 0, 1)
	c.SetXY(2, 1, 2)
	want := "010\n002\n"
	if got := c.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// Property: Coverage of all species sums to 1.
func TestQuickCoverageSums(t *testing.T) {
	f := func(seed uint64) bool {
		l := New(16, 16)
		c := NewConfig(l)
		src := rng.New(seed)
		c.Randomize([]float64{1, 2, 3}, src.Float64)
		sum := c.Coverage(0) + c.Coverage(1) + c.Coverage(2)
		return sum > 0.999999 && sum < 1.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTranslate(b *testing.B) {
	l := New(512, 512)
	v := Vec{1, 0}
	s := 12345
	for i := 0; i < b.N; i++ {
		s = l.Translate(s, v)
	}
}
