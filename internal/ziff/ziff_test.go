package ziff

import (
	"testing"

	"parsurf/internal/lattice"
	"parsurf/internal/rng"
	"parsurf/internal/stats"
)

func TestNewValidatesY(t *testing.T) {
	lat := lattice.NewSquare(8)
	for _, y := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("y=%v accepted", y)
				}
			}()
			New(lat, rng.New(1), y)
		}()
	}
}

func TestInstantaneousReaction(t *testing.T) {
	// Adjacent CO and O can never coexist after a trial completes.
	lat := lattice.NewSquare(16)
	z := New(lat, rng.New(2), 0.5)
	for step := 0; step < 50; step++ {
		z.Step()
		cfg := z.Config()
		for s := 0; s < lat.N(); s++ {
			if cfg.Get(s) != CO {
				continue
			}
			for _, d := range lattice.Axes4() {
				if cfg.Get(lat.Translate(s, d)) == O {
					t.Fatalf("adjacent CO/O pair survived at step %d", step)
				}
			}
		}
	}
}

func TestOPoisoningAtLowY(t *testing.T) {
	pt := Measure(16, 0.2, 300, 50, 3)
	if !pt.Poisoned || pt.CoO < 0.99 {
		t.Fatalf("y=0.2 should O-poison: %+v", pt)
	}
}

func TestCOPoisoningAtHighY(t *testing.T) {
	pt := Measure(16, 0.7, 300, 50, 4)
	if !pt.Poisoned || pt.CoCO < 0.99 {
		t.Fatalf("y=0.7 should CO-poison: %+v", pt)
	}
}

func TestReactiveWindow(t *testing.T) {
	pt := Measure(32, 0.46, 200, 100, 5)
	if pt.Poisoned {
		t.Fatalf("y=0.46 poisoned: %+v", pt)
	}
	if pt.Rate <= 0 {
		t.Fatalf("no CO2 production in the reactive window: %+v", pt)
	}
	if pt.CoEmpty <= 0 {
		t.Fatalf("no vacancies in the reactive window: %+v", pt)
	}
}

func TestCO2Production(t *testing.T) {
	lat := lattice.NewSquare(16)
	z := New(lat, rng.New(6), 0.5)
	for i := 0; i < 20; i++ {
		z.Step()
	}
	if z.CO2Count() == 0 {
		t.Fatal("no CO2 produced at y=0.5")
	}
	if z.Time() != 20 {
		t.Fatalf("Time = %v", z.Time())
	}
}

func TestSweepAndTransitions(t *testing.T) {
	if testing.Short() {
		t.Skip("phase sweep is slow")
	}
	ys := []float64{0.30, 0.36, 0.45, 0.50, 0.56, 0.62}
	points := make([]PhasePoint, len(ys))
	for i, y := range ys {
		points[i] = Measure(24, y, 250, 60, 7+uint64(i))
	}
	y1, y2, ok := Transitions(points)
	if !ok {
		t.Fatalf("transitions not found: %+v", points)
	}
	// Paper values: y1 ≈ 0.39, y2 ≈ 0.525. The coarse grid and small
	// lattice give wide brackets; require the right ordering and rough
	// location.
	if y1 < 0.30 || y1 > 0.47 {
		t.Fatalf("y1 = %v, want ~0.39", y1)
	}
	if y2 < 0.47 || y2 > 0.62 {
		t.Fatalf("y2 = %v, want ~0.525", y2)
	}
	if y1 >= y2 {
		t.Fatalf("y1 %v >= y2 %v", y1, y2)
	}
}

func TestTransitionsIncompleteSweep(t *testing.T) {
	points := []PhasePoint{{Y: 0.45, CoCO: 0.2, CoO: 0.3}}
	if _, _, ok := Transitions(points); ok {
		t.Fatal("transitions claimed from a reactive-only sweep")
	}
}

func TestDeterministicSeed(t *testing.T) {
	a := Measure(12, 0.45, 50, 20, 9)
	b := Measure(12, 0.45, 50, 20, 9)
	if a != b {
		t.Fatalf("same seed gave %+v vs %+v", a, b)
	}
}

func BenchmarkZGBTrial(b *testing.B) {
	lat := lattice.NewSquare(128)
	z := New(lat, rng.New(1), 0.45)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Trial()
	}
}

// A poisoned lattice is absorbing: Step must report false (Engine
// contract), leaving state and random stream untouched.
func TestStepReportsFalseWhenPoisoned(t *testing.T) {
	z := New(lattice.NewSquare(8), rng.New(5), 1.0) // pure CO: poisons fast
	steps := 0
	for z.Step() {
		steps++
		if steps > 10000 {
			t.Fatal("y=1 lattice did not poison")
		}
	}
	if !z.Poisoned() || z.nEmpty != 0 {
		t.Fatalf("Step returned false but Poisoned=%v vacant=%d", z.Poisoned(), z.nEmpty)
	}
	if z.cfg.Coverage(CO) != 1 {
		t.Fatalf("CO coverage %v after CO poisoning, want 1", z.cfg.Coverage(CO))
	}
	before := z.src.State()
	if z.Step() {
		t.Fatal("Step on a poisoned lattice reported true")
	}
	if z.src.State() != before {
		t.Fatal("Step on a poisoned lattice consumed randomness")
	}
}

// The vacancy bookkeeping must track the configuration exactly through
// the simulation's own dynamics, and ResyncVacancies must repair it
// after external configuration writes.
func TestVacancyCountTracksConfig(t *testing.T) {
	z := New(lattice.NewSquare(16), rng.New(9), 0.5)
	for i := 0; i < 20; i++ {
		z.Step()
		if z.nEmpty != z.cfg.Count(Empty) {
			t.Fatalf("step %d: nEmpty %d != Count(Empty) %d",
				i, z.nEmpty, z.cfg.Count(Empty))
		}
	}
	z.cfg.Fill(CO) // external write, bypasses the bookkeeping
	z.ResyncVacancies()
	if z.nEmpty != 0 || !z.Poisoned() {
		t.Fatalf("after Fill+Resync: vacant %d poisoned %v", z.nEmpty, z.Poisoned())
	}
}

// EnsemblePoint windows the mean series at t > equil, averages CO2
// production across replica ledgers, and applies the majority rule for
// poisoning.
func TestEnsemblePoint(t *testing.T) {
	mean := make([]*stats.Series, 3)
	for sp := range mean {
		mean[sp] = &stats.Series{}
	}
	// Grid 0..4; equil boundary at 2 leaves the window {3, 4}.
	for k := 0; k <= 4; k++ {
		mean[Empty].Append(float64(k), 0.1)
		mean[CO].Append(float64(k), float64(k)) // window mean (3+4)/2 = 3.5
		mean[O].Append(float64(k), 0.2)
	}
	ledgers := []ReplicaLedger{
		{CO2Equil: 10, CO2End: 30, Poisoned: true}, // 20 produced
		{CO2Equil: 0, CO2End: 10, Poisoned: false}, // 10 produced
	}
	const sites, equil, measure = 100.0, 2, 2
	pt := EnsemblePoint(0.5, mean, equil, measure, sites, ledgers)
	if pt.Y != 0.5 {
		t.Errorf("Y = %v", pt.Y)
	}
	if pt.CoCO != 3.5 || pt.CoEmpty != 0.1 || pt.CoO != 0.2 {
		t.Errorf("window coverages %v/%v/%v, want 3.5/0.1/0.2", pt.CoCO, pt.CoEmpty, pt.CoO)
	}
	// (20+10)/2 replicas / 2 MCS / 100 sites.
	if want := 15.0 / 2 / 100; pt.Rate != want {
		t.Errorf("Rate = %v, want %v", pt.Rate, want)
	}
	if !pt.Poisoned {
		t.Error("1 of 2 replicas poisoned must count as poisoned (majority rule ties up)")
	}
}
