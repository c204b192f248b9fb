package model

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"parsurf/internal/lattice"
	"parsurf/internal/rng"
)

func TestCompileZGB(t *testing.T) {
	m := NewZGB(DefaultZGBRates())
	lat := lattice.New(16, 16)
	cm, err := Compile(m, lat)
	if err != nil {
		t.Fatal(err)
	}
	if cm.NumTypes() != 7 {
		t.Fatalf("compiled %d types", cm.NumTypes())
	}
	if math.Abs(cm.K-m.K()) > 1e-12 {
		t.Fatal("K mismatch")
	}
}

func TestCompileRejectsInvalidModel(t *testing.T) {
	m := &Model{Species: []string{"*"}}
	if _, err := Compile(m, lattice.New(4, 4)); err == nil {
		t.Fatal("compiled an invalid model")
	}
}

func TestCompileRejectsSelfCollision(t *testing.T) {
	// A two-site horizontal pattern on a width-1 lattice wraps onto
	// itself.
	m := NewSingleFile(1)
	if _, err := Compile(m, lattice.New(1, 1)); err == nil {
		t.Fatal("self-colliding pattern accepted")
	}
	// Width 2 is fine for offsets ±1.
	if _, err := Compile(m, lattice.New(2, 1)); err != nil {
		t.Fatalf("width-2 ring rejected: %v", err)
	}
}

// The compiled Enabled/Execute must agree with the interpreted
// ReactionType methods on random configurations.
func TestCompiledMatchesInterpreted(t *testing.T) {
	m := NewPtCO(DefaultPtCORates())
	lat := lattice.New(12, 10)
	cm := MustCompile(m, lat)
	src := rng.New(99)
	c := lattice.NewConfig(lat)
	c.Randomize([]float64{1, 1, 1, 1, 1, 1}, src.Float64)
	for trial := 0; trial < 5000; trial++ {
		s := src.Intn(lat.N())
		rt := src.Intn(cm.NumTypes())
		want := m.Types[rt].Enabled(c, s)
		got := cm.Enabled(c.Cells(), rt, s)
		if got != want {
			t.Fatalf("Enabled mismatch at rt=%d s=%d: compiled %v interpreted %v", rt, s, got, want)
		}
		if got {
			d := c.Clone()
			m.Types[rt].Execute(d, s)
			cm.Execute(c.Cells(), rt, s)
			if !c.Equal(d) {
				t.Fatalf("Execute mismatch at rt=%d s=%d", rt, s)
			}
		}
	}
}

func TestTryExecute(t *testing.T) {
	m := NewZGB(DefaultZGBRates())
	lat := lattice.New(4, 4)
	cm := MustCompile(m, lat)
	c := lattice.NewConfig(lat)
	co := m.TypeByName("RtCO")
	if !cm.TryExecute(c.Cells(), co, 0) {
		t.Fatal("TryExecute failed on enabled reaction")
	}
	if cm.TryExecute(c.Cells(), co, 0) {
		t.Fatal("TryExecute fired on disabled reaction")
	}
	if c.Get(0) != ZGBCO {
		t.Fatal("TryExecute did not write")
	}
}

func TestPickTypeDistribution(t *testing.T) {
	m := NewZGB(ZGBRates{KCO: 1, KO2: 2, KCO2: 3})
	cm := MustCompile(m, lattice.New(4, 4))
	src := rng.New(3)
	const draws = 200000
	counts := make([]int, cm.NumTypes())
	for i := 0; i < draws; i++ {
		counts[cm.PickType(src.Float64())]++
	}
	for i, c := range counts {
		want := m.Types[i].Rate / cm.K * draws
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("type %d picked %d times, want ~%v", i, c, want)
		}
	}
}

func TestPickTypeEdges(t *testing.T) {
	m := NewZGB(DefaultZGBRates())
	cm := MustCompile(m, lattice.New(4, 4))
	if got := cm.PickType(0); got != 0 {
		t.Fatalf("PickType(0) = %d", got)
	}
	if got := cm.PickType(0.9999999999); got != cm.NumTypes()-1 {
		t.Fatalf("PickType(~1) = %d", got)
	}
}

func TestChangedSites(t *testing.T) {
	m := NewIsing(0.5)
	lat := lattice.New(6, 6)
	cm := MustCompile(m, lat)
	// Ising flips change only the centre site even though the pattern
	// reads five sites.
	for rt := 0; rt < cm.NumTypes(); rt++ {
		plan := cm.Plan(rt)
		if len(plan) != 1 || cm.ChangedSite(&plan[0], 7) != 7 {
			t.Fatalf("Ising type %d plan has %d changes, want one at site 7", rt, len(plan))
		}
		nb := cm.NbSites(nil, rt, 7)
		if len(nb) != 5 {
			t.Fatalf("Ising type %d neighbourhood %v", rt, nb)
		}
	}
}

// Every dependency row must list exactly the (type, site) pairs whose
// pattern covers the row's site.
func TestDependenciesComplete(t *testing.T) {
	m := NewZGB(DefaultZGBRates())
	lat := lattice.New(8, 8)
	cm := MustCompile(m, lat)
	var colRT []int
	for r := range m.Types {
		for range m.Types[r].Triples {
			colRT = append(colRT, r)
		}
	}
	z := lat.Index(4, 4)
	got := make(map[[2]int]bool)
	for j, s := range cm.DepRow(z) {
		got[[2]int{colRT[j], int(s)}] = true
	}
	// Brute force: all (rt, s) with z in the resolved pattern.
	want := make(map[[2]int]bool)
	for rt := range cm.Types {
		for s := 0; s < lat.N(); s++ {
			for _, site := range cm.NbSites(nil, rt, s) {
				if site == z {
					want[[2]int{rt, s}] = true
				}
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("dependency row lists %d pairs, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing dependency %v", k)
		}
	}
}

// Property: compiled translation tables implement lattice.Translate.
func TestQuickTables(t *testing.T) {
	m := NewZGB(DefaultZGBRates())
	lat := lattice.New(11, 5)
	cm := MustCompile(m, lat)
	f := func(s16 uint16, which, tri uint8) bool {
		s := int(s16) % lat.N()
		rt := int(which) % len(m.Types)
		j := int(tri) % len(m.Types[rt].Triples)
		off := m.Types[rt].Triples[j].Off
		return int(cm.Types[rt].Triples[j].Table[s]) == lat.Translate(s, off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCompile times building the compiled tables (translation
// arena, dependency rows and refresh plans) for ZGB (7 types) and Pt(100)
// (52 types): the per-spec set-up cost every engine construction pays.
func BenchmarkCompile(b *testing.B) {
	models := []struct {
		name string
		m    *Model
	}{
		{"zgb", NewZGB(DefaultZGBRates())},
		{"ptco", NewPtCO(DefaultPtCORates())},
	}
	for _, mc := range models {
		for _, side := range []int{32, 64, 256} {
			b.Run(fmt.Sprintf("%s/%d", mc.name, side), func(b *testing.B) {
				lat := lattice.NewSquare(side)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Compile(mc.m, lat); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCompiledTrial(b *testing.B) {
	m := NewZGB(DefaultZGBRates())
	lat := lattice.New(256, 256)
	cm := MustCompile(m, lat)
	c := lattice.NewConfig(lat)
	src := rng.New(1)
	c.Randomize([]float64{1, 1, 1}, src.Float64)
	cells := c.Cells()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := src.Intn(lat.N())
		rt := cm.PickType(src.Float64())
		cm.TryExecute(cells, rt, s)
	}
}

// Column j of every dependency row is the j-th (type, triple) pair in
// type-ascending, triple-ascending order, and its entry is the changed
// site translated by that triple's negated offset. The reference is
// computed independently from the model offsets, so the test pins the
// column order the refresh plans (and with them the engines'
// trajectories) depend on.
func TestDepRowsMatchReference(t *testing.T) {
	m := NewPtCO(DefaultPtCORates())
	lat := lattice.New(10, 12)
	cm := MustCompile(m, lat)
	for z := 0; z < lat.N(); z++ {
		var want []int
		for r := range m.Types {
			for _, tr := range m.Types[r].Triples {
				want = append(want, lat.Translate(z, tr.Off.Neg()))
			}
		}
		row := cm.DepRow(z)
		if len(row) != len(want) {
			t.Fatalf("z=%d: row has %d columns, want %d", z, len(row), len(want))
		}
		for j := range row {
			if int(row[j]) != want[j] {
				t.Fatalf("z=%d column %d: site %d != reference %d", z, j, row[j], want[j])
			}
		}
	}
}

// The CSR rows must all have the same width (one column per triple of
// every type) and cover every site.
func TestDepCSRShape(t *testing.T) {
	m := NewZGB(DefaultZGBRates())
	lat := lattice.New(8, 8)
	cm := MustCompile(m, lat)
	want := 0
	for i := range m.Types {
		want += len(m.Types[i].Triples)
	}
	if len(cm.depSite) != want*lat.N() {
		t.Fatalf("CSR holds %d entries, want %d rows of %d", len(cm.depSite), lat.N(), want)
	}
	for z := 0; z < lat.N(); z++ {
		if got := len(cm.DepRow(z)); got != want {
			t.Fatalf("site %d has %d dependency columns, want %d", z, got, want)
		}
	}
}

// builtinModels are the six built-in models with a random-configuration
// weight per species, for property tests over every pattern shape.
func builtinModels() []struct {
	name    string
	m       *Model
	weights []float64
} {
	return []struct {
		name    string
		m       *Model
		weights []float64
	}{
		{"zgb", NewZGB(DefaultZGBRates()), []float64{0.5, 0.2, 0.3}},
		{"ptco", NewPtCO(DefaultPtCORates()), []float64{3, 1, 1, 2, 1, 1}},
		{"ising", NewIsing(0.4), []float64{1, 1}},
		{"diffusion", NewDimerDiffusion(1), []float64{0.6, 0.4}},
		{"singlefile", NewSingleFile(1), []float64{0.5, 0.5}},
		{"ab", NewAB(1, 1, 5), []float64{0.4, 0.3, 0.3}},
	}
}

// The refresh plan is sound: for every enabled (rt, s) of random
// configurations of every built-in model, executing rt at s changes
// the enabledness only of pairs the plan visits, every Drop pair is
// disabled afterwards, and every column of a changed site's row that
// the plan skips kept its enabledness.
func TestPlanSound(t *testing.T) {
	for _, mc := range builtinModels() {
		t.Run(mc.name, func(t *testing.T) {
			lat := lattice.New(6, 5)
			cm := MustCompile(mc.m, lat)
			n, types := lat.N(), cm.NumTypes()
			var colRT []int
			for r := range mc.m.Types {
				for range mc.m.Types[r].Triples {
					colRT = append(colRT, r)
				}
			}
			enabled := func(cells []lattice.Species) []bool {
				e := make([]bool, types*n)
				for r := 0; r < types; r++ {
					for s := 0; s < n; s++ {
						e[r*n+s] = cm.Enabled(cells, r, s)
					}
				}
				return e
			}
			src := rng.New(17)
			for trial := 0; trial < 4; trial++ {
				c := lattice.NewConfig(lat)
				c.Randomize(mc.weights, src.Float64)
				before := enabled(c.Cells())
				for rt := 0; rt < types; rt++ {
					for s := 0; s < n; s++ {
						if !before[rt*n+s] {
							continue
						}
						d := c.Clone()
						cm.Execute(d.Cells(), rt, s)
						after := enabled(d.Cells())
						visited := make(map[int]bool)
						plan := cm.Plan(rt)
						for i := range plan {
							row := cm.DepRow(cm.ChangedSite(&plan[i], s))
							listed := make(map[int32]bool)
							for _, dep := range plan[i].Deps {
								key := int(dep.RT)*n + int(row[dep.Col])
								visited[key] = true
								listed[dep.Col] = true
								if dep.Drop && after[key] {
									t.Fatalf("rt=%d s=%d: Drop pair (%d,%d) enabled after execution",
										rt, s, dep.RT, row[dep.Col])
								}
							}
							for j, site := range row {
								key := colRT[j]*n + int(site)
								if !listed[int32(j)] && before[key] != after[key] {
									t.Fatalf("rt=%d s=%d: skipped column %d pair (%d,%d) changed enabledness",
										rt, s, j, colRT[j], site)
								}
							}
						}
						for key := range after {
							if before[key] != after[key] && !visited[key] {
								t.Fatalf("rt=%d s=%d: pair (%d,%d) changed enabledness but the plan never visits it",
									rt, s, key/n, key%n)
							}
						}
					}
				}
			}
		})
	}
}

// PickType must reject models with no positive total rate instead of
// silently returning the last type.
func TestPickTypeRejectsZeroK(t *testing.T) {
	cm := &Compiled{Cum: []float64{0, 0}, K: 0, Types: make([]CompiledType, 2)}
	defer func() {
		if recover() == nil {
			t.Fatal("PickType with K=0 did not panic")
		}
	}()
	cm.PickType(0.5)
}

// A target landing at or beyond the cumulative total (floating-point
// rounding of u ≈ 1, or trailing zero-rate types) must resolve to the
// last type with positive rate.
func TestPickTypeBoundaryFallsToPositiveRate(t *testing.T) {
	cm := &Compiled{
		Cum:   []float64{1, 3, 3}, // type 2 has zero rate
		K:     3,
		Types: []CompiledType{{Rate: 1}, {Rate: 2}, {Rate: 0}},
	}
	// u*K == K exactly: must not land on the zero-rate tail type.
	if got := cm.PickType(1.0); got != 1 {
		t.Fatalf("PickType(1.0) = %d, want 1 (last positive-rate type)", got)
	}
	// An exact interior boundary selects the next type (intervals are
	// half-open [Cum[i-1], Cum[i])).
	if got := cm.PickType(1.0 / 3.0); got != 1 {
		t.Fatalf("PickType(1/3) = %d, want 1", got)
	}
}
