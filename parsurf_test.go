package parsurf_test

import (
	"context"
	"math"
	"testing"

	"parsurf"
	"parsurf/internal/sim"
)

// newEngine builds the named engine over cm on a fresh configuration
// of lat, drawing from NewRNG(seed).
func newEngine(t testing.TB, name string, cm *parsurf.Compiled, lat *parsurf.Lattice, seed uint64, opts ...parsurf.EngineOption) parsurf.Engine {
	t.Helper()
	eng, err := parsurf.NewEngine(name, cm, parsurf.NewConfig(lat), parsurf.NewRNG(seed), opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return eng
}

// The quickstart path: build a model, compile, simulate, observe.
func TestFacadeQuickstart(t *testing.T) {
	lat := parsurf.NewSquareLattice(20)
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	cm, err := parsurf.Compile(m, lat)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, "rsm", cm, lat, 1)
	for eng.Time() < 5 {
		eng.Step()
	}
	cfg := eng.Config()
	total := cfg.Coverage(0) + cfg.Coverage(1) + cfg.Coverage(2)
	if math.Abs(total-1) > 1e-12 {
		t.Fatal("coverages do not partition")
	}
}

func TestFacadePartitionedPath(t *testing.T) {
	lat := parsurf.NewSquareLattice(20)
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	cm := parsurf.MustCompile(m, lat)
	part, err := parsurf.VonNeumann5(lat)
	if err != nil {
		t.Fatal(err)
	}
	if err := parsurf.VerifyNonOverlap(part, m); err != nil {
		t.Fatal(err)
	}
	p := newEngine(t, "pndca", cm, lat, 2, parsurf.PartitionNamed("vonneumann5"), parsurf.Workers(4)).(*parsurf.PNDCA)
	for i := 0; i < 10; i++ {
		p.Step()
	}
	if p.Successes() == 0 {
		t.Fatal("no reactions")
	}

	e := newEngine(t, "lpndca", cm, lat, 3, parsurf.PartitionNamed("vonneumann5"),
		parsurf.Trials(10), parsurf.Strategy(parsurf.RateWeighted)).(*parsurf.LPNDCA)
	e.Step()
	if e.Trials() == 0 {
		t.Fatal("no trials")
	}

	if _, err := parsurf.SplitByDirection(m, lat); err != nil {
		t.Fatal(err)
	}
	newEngine(t, "typepart", cm, lat, 4, parsurf.TypeSplitNamed("bydirection")).Step()
}

// Every registered engine builds through NewEngine and advances its
// clock on its first step.
func TestFacadeEngines(t *testing.T) {
	lat := parsurf.NewSquareLattice(12)
	cm := parsurf.MustCompile(parsurf.NewZGBModel(parsurf.DefaultZGBRates()), lat)
	for i, name := range parsurf.Engines() {
		eng := newEngine(t, name, cm, lat, uint64(5+i))
		if !eng.Step() {
			t.Fatalf("%s could not step", name)
		}
		if eng.Time() <= 0 {
			t.Fatalf("%s time did not advance", name)
		}
	}
}

func TestFacadeZiffAndMachine(t *testing.T) {
	z := newEngine(t, "ziff", nil, parsurf.NewSquareLattice(16), 11, parsurf.COFraction(0.5)).(*parsurf.ZiffZGB)
	for i := 0; i < 30; i++ {
		z.Step()
	}
	if z.CO2Count() == 0 {
		t.Fatal("no CO2")
	}

	mm := parsurf.DefaultMachine()
	surface, err := mm.SpeedupSurface([]int{200, 1000}, []int{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if surface[1][1] <= surface[0][1] {
		t.Fatal("speedup not increasing with system size")
	}
}

func TestFacadePtCO(t *testing.T) {
	lat := parsurf.NewSquareLattice(20)
	m := parsurf.NewPtCOModel(parsurf.DefaultPtCORates())
	cm := parsurf.MustCompile(m, lat)
	eng := newEngine(t, "vssm", cm, lat, 12)
	_, samples, err := sim.RunContext(context.Background(), eng, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if samples < 5 {
		t.Fatalf("run observed %d points", samples)
	}
	co, o, sq := parsurf.PtCoverages(eng.Config())
	if co < 0 || o < 0 || sq < 0 || co > 1 || o > 1 || sq > 1 {
		t.Fatal("coverages out of range")
	}
}

func TestFacadeModularColoring(t *testing.T) {
	lat := parsurf.NewSquareLattice(20)
	m := parsurf.NewIsingModel(0.4)
	p, err := parsurf.ModularColoring(m, lat, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumChunks() != 5 {
		t.Fatalf("Ising colouring chunks = %d", p.NumChunks())
	}
	if parsurf.SingleChunk(lat).NumChunks() != 1 || parsurf.Singletons(lat).NumChunks() != lat.N() {
		t.Fatal("degenerate partitions wrong")
	}
	if _, err := parsurf.Checkerboard(lat); err != nil {
		t.Fatal(err)
	}
}
