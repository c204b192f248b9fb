package partition

import (
	"math"
	"testing"
	"testing/quick"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
)

func TestFromChunksValidation(t *testing.T) {
	lat := lattice.New(2, 2)
	cases := []struct {
		name   string
		chunks [][]int32
	}{
		{"empty chunk", [][]int32{{0, 1, 2, 3}, {}}},
		{"out of range", [][]int32{{0, 1, 2, 4}}},
		{"duplicate", [][]int32{{0, 1}, {1, 2, 3}}},
		{"incomplete", [][]int32{{0, 1, 2}}},
	}
	for _, c := range cases {
		if _, err := FromChunks(lat, c.chunks); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	p, err := FromChunks(lat, [][]int32{{0, 3}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumChunks() != 2 || p.ChunkOf(0) != 0 || p.ChunkOf(1) != 1 {
		t.Fatal("valid partition misparsed")
	}
	if s := p.Sizes(); s[0] != 2 || s[1] != 2 {
		t.Fatalf("Sizes = %v", s)
	}
}

func TestSingleChunkAndSingletons(t *testing.T) {
	lat := lattice.New(4, 3)
	one := SingleChunk(lat)
	if one.NumChunks() != 1 || len(one.Chunks[0]) != 12 {
		t.Fatal("SingleChunk malformed")
	}
	all := Singletons(lat)
	if all.NumChunks() != 12 {
		t.Fatal("Singletons malformed")
	}
	for s := 0; s < 12; s++ {
		if all.ChunkOf(s) != s {
			t.Fatal("Singletons chunk mapping wrong")
		}
	}
}

// Fig. 4 of the paper: the 5×5 tile with rows 01234 / 34012 / 12340 /
// 40123 / 23401 (colour = (x + 3y) mod 5).
func TestVonNeumann5Tile(t *testing.T) {
	lat := lattice.NewSquare(5)
	p, err := VonNeumann5(lat)
	if err != nil {
		t.Fatal(err)
	}
	want := [5][5]int{
		{0, 1, 2, 3, 4},
		{3, 4, 0, 1, 2},
		{1, 2, 3, 4, 0},
		{4, 0, 1, 2, 3},
		{2, 3, 4, 0, 1},
	}
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			if got := p.ChunkOf(lat.Index(x, y)); got != want[y][x] {
				t.Errorf("chunk(%d,%d) = %d, want %d", x, y, got, want[y][x])
			}
		}
	}
	// Five equal chunks.
	for _, size := range p.Sizes() {
		if size != 5 {
			t.Fatalf("chunk sizes %v", p.Sizes())
		}
	}
}

func TestVonNeumann5NonOverlapZGB(t *testing.T) {
	lat := lattice.NewSquare(20)
	p, err := VonNeumann5(lat)
	if err != nil {
		t.Fatal(err)
	}
	m := model.NewZGB(model.DefaultZGBRates())
	if err := VerifyNonOverlap(p, m); err != nil {
		t.Fatalf("Fig. 4 partition violates the non-overlap rule: %v", err)
	}
}

func TestVonNeumann5NonOverlapPtCO(t *testing.T) {
	lat := lattice.NewSquare(20)
	p, _ := VonNeumann5(lat)
	m := model.NewPtCO(model.DefaultPtCORates())
	if err := VerifyNonOverlap(p, m); err != nil {
		t.Fatalf("von Neumann 5-colouring fails for PtCO: %v", err)
	}
}

func TestVonNeumann5RequiresDivisibility(t *testing.T) {
	if _, err := VonNeumann5(lattice.New(12, 10)); err == nil {
		t.Fatal("accepted width not divisible by 5")
	}
	if _, err := VonNeumann5(lattice.New(10, 12)); err == nil {
		t.Fatal("accepted height not divisible by 5")
	}
}

// The checkerboard must fail the all-types rule for ZGB (opposite
// orientations of CO+O overlap between same-colour sites)...
func TestCheckerboardFailsAllTypesZGB(t *testing.T) {
	lat := lattice.NewSquare(8)
	p, err := Checkerboard(lat)
	if err != nil {
		t.Fatal(err)
	}
	m := model.NewZGB(model.DefaultZGBRates())
	if err := VerifyNonOverlap(p, m); err == nil {
		t.Fatal("checkerboard wrongly satisfies the all-types rule for ZGB")
	}
}

// ...but satisfy the per-type rule for every ZGB type, which is what the
// type-partitioned algorithm needs (Fig. 6).
func TestCheckerboardPerTypeZGB(t *testing.T) {
	lat := lattice.NewSquare(8)
	p, _ := Checkerboard(lat)
	m := model.NewZGB(model.DefaultZGBRates())
	for i := range m.Types {
		if err := VerifyNonOverlapType(p, &m.Types[i]); err != nil {
			t.Errorf("type %q: %v", m.Types[i].Name, err)
		}
	}
}

func TestCheckerboardFig6Membership(t *testing.T) {
	// Paper Fig. 6 on a width-6 lattice: P0 = {0,2,4,7,9,11,...},
	// P1 = {1,3,5,6,8,10,...}.
	lat := lattice.New(6, 4)
	p, _ := Checkerboard(lat)
	for _, s := range []int{0, 2, 4, 7, 9, 11} {
		if p.ChunkOf(s) != 0 {
			t.Errorf("site %d in chunk %d, want 0", s, p.ChunkOf(s))
		}
	}
	for _, s := range []int{1, 3, 5, 6, 8, 10} {
		if p.ChunkOf(s) != 1 {
			t.Errorf("site %d in chunk %d, want 1", s, p.ChunkOf(s))
		}
	}
}

func TestBlocks(t *testing.T) {
	lat := lattice.New(9, 6)
	p, err := Blocks(lat, 3, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumChunks() != 6 {
		t.Fatalf("NumChunks = %d, want 6", p.NumChunks())
	}
	for _, size := range p.Sizes() {
		if size != 9 {
			t.Fatalf("block sizes %v", p.Sizes())
		}
	}
	// Sites (0,0) and (2,2) share a block; (3,0) does not.
	if p.ChunkOf(lat.Index(0, 0)) != p.ChunkOf(lat.Index(2, 2)) {
		t.Error("same block split")
	}
	if p.ChunkOf(lat.Index(0, 0)) == p.ChunkOf(lat.Index(3, 0)) {
		t.Error("different blocks merged")
	}
}

func TestBlocksShifted(t *testing.T) {
	lat := lattice.New(6, 6)
	p0, _ := Blocks(lat, 3, 3, 0, 0)
	p1, err := Blocks(lat, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The shifted tiling must place (0,0) and (2,2) in different blocks
	// (the boundary moved).
	if p1.ChunkOf(lat.Index(0, 0)) == p1.ChunkOf(lat.Index(2, 2)) {
		t.Error("shift did not move the block boundary")
	}
	// Shifted and unshifted tilings are both valid partitions of all
	// sites.
	if p0.NumChunks() != p1.NumChunks() {
		t.Error("shifted tiling changed the chunk count")
	}
}

func TestBlocksErrors(t *testing.T) {
	lat := lattice.New(6, 6)
	if _, err := Blocks(lat, 4, 3, 0, 0); err == nil {
		t.Error("accepted non-dividing block width")
	}
	if _, err := Blocks(lat, 0, 3, 0, 0); err == nil {
		t.Error("accepted zero block width")
	}
}

func TestModularColoringZGB(t *testing.T) {
	lat := lattice.NewSquare(20)
	m := model.NewZGB(model.DefaultZGBRates())
	p, err := ModularColoring(m, lat, 32)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumChunks() != 5 {
		t.Fatalf("modular search found %d chunks for ZGB, the optimum is 5", p.NumChunks())
	}
	if err := VerifyNonOverlap(p, m); err != nil {
		t.Fatal(err)
	}
}

func TestModularColoringSingleSite(t *testing.T) {
	lat := lattice.NewSquare(6)
	m := &model.Model{
		Species: []string{"*", "A"},
		Types: []model.ReactionType{{
			Name: "ads", Rate: 1,
			Triples: []model.Triple{{Off: lattice.Vec{}, Src: 0, Tgt: 1}},
		}},
	}
	p, err := ModularColoring(m, lat, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumChunks() != 1 {
		t.Fatalf("single-site model needs 1 chunk, got %d", p.NumChunks())
	}
}

func TestModularColoringIsing(t *testing.T) {
	// Ising flips read the full von Neumann cross, same conflict set as
	// ZGB: five colours.
	lat := lattice.NewSquare(10)
	m := model.NewIsing(0.5)
	p, err := ModularColoring(m, lat, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyNonOverlap(p, m); err != nil {
		t.Fatal(err)
	}
	if p.NumChunks() != 5 {
		t.Fatalf("Ising colouring uses %d chunks, want 5", p.NumChunks())
	}
}

func TestModularColoringFailsWhenTooConstrained(t *testing.T) {
	lat := lattice.New(7, 7) // prime extents: only k=7 divides
	m := model.NewZGB(model.DefaultZGBRates())
	if _, err := ModularColoring(m, lat, 6); err == nil {
		t.Fatal("expected failure with maxK below any divisor")
	}
}

func TestSplitByDirectionTableII(t *testing.T) {
	lat := lattice.NewSquare(8)
	m := model.NewZGB(model.DefaultZGBRates())
	ts, err := SplitByDirection(m, lat)
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumSubsets() != 2 {
		t.Fatalf("|T| = %d, want 2", ts.NumSubsets())
	}
	names := func(subset []int) map[string]bool {
		out := make(map[string]bool)
		for _, i := range subset {
			out[m.Types[i].Name] = true
		}
		return out
	}
	t0 := names(ts.Subsets[0])
	t1 := names(ts.Subsets[1])
	// Table II: T0 = horizontal orientations + RtCO; T1 = vertical.
	for _, n := range []string{"RtCO+O(0)", "RtCO+O(2)", "RtO2(0)", "RtCO"} {
		if !t0[n] {
			t.Errorf("T0 missing %s (have %v)", n, t0)
		}
	}
	for _, n := range []string{"RtCO+O(1)", "RtCO+O(3)", "RtO2(1)"} {
		if !t1[n] {
			t.Errorf("T1 missing %s (have %v)", n, t1)
		}
	}
	if err := ts.Verify(); err != nil {
		t.Fatalf("Table II split fails verification: %v", err)
	}
	// K_T0 + K_T1 = K (up to summation-order rounding).
	if k := ts.K(); math.Abs(k-m.K()) > 1e-9 {
		t.Fatalf("subset rates sum to %v, want %v", k, m.K())
	}
}

func TestSplitByDirectionRejectsWidePatterns(t *testing.T) {
	lat := lattice.NewSquare(8)
	m := &model.Model{
		Species: []string{"*", "A"},
		Types: []model.ReactionType{{
			Name: "tromino", Rate: 1,
			Triples: []model.Triple{
				{Off: lattice.Vec{DX: -1}, Src: 0, Tgt: 1},
				{Off: lattice.Vec{}, Src: 0, Tgt: 1},
				{Off: lattice.Vec{DX: 1}, Src: 0, Tgt: 1},
			},
		}},
	}
	if _, err := SplitByDirection(m, lat); err == nil {
		t.Fatal("tromino accepted as a domino")
	}
}

func TestSplitByDirectionCollapsesHorizontalOnly(t *testing.T) {
	lat := lattice.NewSquare(8)
	m := &model.Model{
		Species: []string{"*", "A"},
		Types: []model.ReactionType{{
			Name: "ads", Rate: 1,
			Triples: []model.Triple{{Off: lattice.Vec{}, Src: 0, Tgt: 1}},
		}},
	}
	ts, err := SplitByDirection(m, lat)
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumSubsets() != 1 {
		t.Fatalf("single-site model split into %d subsets", ts.NumSubsets())
	}
}

// Property: every builder yields a true partition (disjoint cover), for
// assorted lattice sizes.
func TestQuickBuildersPartition(t *testing.T) {
	f := func(wSeed, hSeed uint8) bool {
		w := (int(wSeed%4) + 1) * 10 // 10,20,30,40: divisible by 2 and 5
		h := (int(hSeed%4) + 1) * 10
		lat := lattice.New(w, h)
		ps := []*Partition{SingleChunk(lat)}
		if p, err := VonNeumann5(lat); err == nil {
			ps = append(ps, p)
		} else {
			return false
		}
		if p, err := Checkerboard(lat); err == nil {
			ps = append(ps, p)
		} else {
			return false
		}
		for _, p := range ps {
			covered := make([]bool, lat.N())
			total := 0
			for _, chunk := range p.Chunks {
				for _, s := range chunk {
					if covered[s] {
						return false
					}
					covered[s] = true
					total++
				}
			}
			if total != lat.N() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}

// Property: VerifyNonOverlap agrees with a brute-force pairwise check on
// small lattices.
func TestQuickVerifyAgainstBruteForce(t *testing.T) {
	m := model.NewZGB(model.DefaultZGBRates())
	lat := lattice.NewSquare(10)
	// Offsets union for ZGB: every offset its reaction types touch.
	var union []lattice.Vec
	for _, rt := range m.Types {
		for _, tr := range rt.Triples {
			union = append(union, tr.Off)
		}
	}
	brute := func(p *Partition) bool {
		for _, chunk := range p.Chunks {
			for i := 0; i < len(chunk); i++ {
				for j := i + 1; j < len(chunk); j++ {
					seen := make(map[int]bool)
					for _, o := range union {
						seen[lat.Translate(int(chunk[i]), o)] = true
					}
					for _, o := range union {
						if seen[lat.Translate(int(chunk[j]), o)] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	for _, build := range []func() (*Partition, error){
		func() (*Partition, error) { return VonNeumann5(lat) },
		func() (*Partition, error) { return Checkerboard(lat) },
		func() (*Partition, error) { return Blocks(lat, 5, 5, 0, 0) },
	} {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		fast := VerifyNonOverlap(p, m) == nil
		if fast != brute(p) {
			t.Fatalf("verifier disagrees with brute force (fast=%v)", fast)
		}
	}
}

// conflictOffsets and mapKeys flatten map-keyed sets; their output
// order feeds the modular-colouring search and the overlap error
// messages, so it must not inherit Go's randomized map iteration.
// Regression test for a surflint:maporder finding.
func TestConflictOffsetsDeterministic(t *testing.T) {
	m := model.NewZGB(model.DefaultZGBRates())
	first := conflictOffsets(m)
	if len(first) == 0 {
		t.Fatal("ZGB has no conflict offsets?")
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.DX > b.DX || (a.DX == b.DX && a.DY >= b.DY) {
			t.Fatalf("conflictOffsets not in (DX, DY) order at %d: %v then %v", i-1, a, b)
		}
	}
	for trial := 0; trial < 8; trial++ {
		again := conflictOffsets(m)
		if len(again) != len(first) {
			t.Fatalf("trial %d: %d offsets vs %d", trial, len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("trial %d: order diverged at %d: %v vs %v", trial, i, again[i], first[i])
			}
		}
	}
}

// referenceFromColoring is the Index-based construction fromColoring
// replaced: it pins the chunks, and the member order within each chunk,
// that the partitioned engines sweep.
func referenceFromColoring(lat *lattice.Lattice, colours int, colourOf func(x, y int) int) [][]int32 {
	chunks := make([][]int32, colours)
	for y := 0; y < lat.L1; y++ {
		for x := 0; x < lat.L0; x++ {
			c := colourOf(x, y)
			chunks[c] = append(chunks[c], int32(lat.Index(x, y)))
		}
	}
	return chunks
}

func sameChunks(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// The colourings must give the reference chunks on non-square lattices,
// where a swapped x/y would change them (every golden trace is square).
func TestColouringsMatchIndexReference(t *testing.T) {
	zgb := model.NewZGB(model.DefaultZGBRates())
	cases := []struct {
		name  string
		lat   *lattice.Lattice
		build func(*lattice.Lattice) (*Partition, error)
	}{
		{"vonneumann5", lattice.New(10, 20), VonNeumann5},
		{"vonneumann5", lattice.New(20, 10), VonNeumann5},
		{"checkerboard", lattice.New(6, 4), Checkerboard},
		{"checkerboard", lattice.New(4, 6), Checkerboard},
		{"modular", lattice.New(12, 18), func(lat *lattice.Lattice) (*Partition, error) {
			return ModularColoring(zgb, lat, 64)
		}},
	}
	for _, c := range cases {
		p, err := c.build(c.lat)
		if err != nil {
			t.Fatalf("%s %dx%d: %v", c.name, c.lat.L0, c.lat.L1, err)
		}
		var want [][]int32
		switch c.name {
		case "vonneumann5":
			want = referenceFromColoring(c.lat, 5, func(x, y int) int { return (x + 3*y) % 5 })
		case "checkerboard":
			want = referenceFromColoring(c.lat, 2, func(x, y int) int { return (x + y) % 2 })
		case "modular":
			// Recover (k, r) from the partition: site (1, 0) has colour
			// 1 and site (0, 1) has colour r.
			k := p.NumChunks()
			r := p.ChunkOf(c.lat.Index(0, 1))
			if p.ChunkOf(c.lat.Index(1, 0)) != 1 || k < 2 {
				t.Fatalf("modular %dx%d: unexpected colouring with %d chunks", c.lat.L0, c.lat.L1, k)
			}
			want = referenceFromColoring(c.lat, k, func(x, y int) int { return (x + r*y) % k })
		}
		if !sameChunks(p.Chunks, want) {
			t.Errorf("%s %dx%d: chunks differ from the Index-based reference", c.name, c.lat.L0, c.lat.L1)
		}
	}
}

// On non-square lattices VerifyNonOverlap still rejects the single
// chunk and the checkerboard for ZGB and accepts the Fig. 4 colouring.
func TestVerifyNonOverlapNonSquare(t *testing.T) {
	zgb := model.NewZGB(model.DefaultZGBRates())
	for _, lat := range []*lattice.Lattice{lattice.New(10, 20), lattice.New(20, 10)} {
		vn5, err := VonNeumann5(lat)
		if err != nil {
			t.Fatal(err)
		}
		board, err := Checkerboard(lat)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name   string
			p      *Partition
			accept bool
		}{
			{"singlechunk", SingleChunk(lat), false},
			{"checkerboard", board, false},
			{"vonneumann5", vn5, true},
		}
		for _, c := range cases {
			if err := VerifyNonOverlap(c.p, zgb); (err == nil) != c.accept {
				t.Errorf("%s %dx%d: VerifyNonOverlap = %v, want accept=%v", c.name, lat.L0, lat.L1, err, c.accept)
			}
		}
	}
}
