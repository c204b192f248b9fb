package ca

import (
	"math"
	"testing"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
)

func ndcaSetup(t testing.TB, l int, seed uint64) (*model.Compiled, *lattice.Config, *rng.Source) {
	t.Helper()
	m := model.NewZGB(model.DefaultZGBRates())
	lat := lattice.NewSquare(l)
	cm, err := model.Compile(m, lat)
	if err != nil {
		t.Fatal(err)
	}
	return cm, lattice.NewConfig(lat), rng.New(seed)
}

func TestNDCAStepVisitsEverySite(t *testing.T) {
	cm, cfg, src := ndcaSetup(t, 8, 1)
	a := NewNDCA(cm, cfg, src)
	a.Step()
	if a.Trials() != uint64(cm.Lat.N()) {
		t.Fatalf("step made %d trials, want %d", a.Trials(), cm.Lat.N())
	}
	if a.Successes() == 0 {
		t.Fatal("nothing fired on an empty lattice")
	}
	if a.Time() <= 0 {
		t.Fatal("time did not advance")
	}
}

func TestNDCADeterministicTime(t *testing.T) {
	cm, cfg, src := ndcaSetup(t, 8, 2)
	a := NewNDCA(cm, cfg, src)
	a.DeterministicTime = true
	a.Step()
	if math.Abs(a.Time()-1/cm.K) > 1e-9 {
		t.Fatalf("time %v, want %v", a.Time(), 1/cm.K)
	}
}

// The paper: NDCA approximates RSM. On the ZGB model in the reactive
// regime the steady coverages must be close (not identical).
func TestNDCACloseToRSMSteadyState(t *testing.T) {
	m := model.NewZGB(model.DefaultZGBRates())
	lat := lattice.NewSquare(40)
	cm := model.MustCompile(m, lat)

	run := func(stepper interface {
		Step() bool
		Config() *lattice.Config
	}) float64 {
		for i := 0; i < 150; i++ {
			stepper.Step()
		}
		total := 0.0
		for i := 0; i < 50; i++ {
			stepper.Step()
			total += stepper.Config().Coverage(model.ZGBCO)
		}
		return total / 50
	}

	cfgN := lattice.NewConfig(lat)
	ndca := NewNDCA(cm, cfgN, rng.New(7))
	covN := run(ndca)

	cfgR := lattice.NewConfig(lat)
	rsm := newRSMForTest(cm, cfgR, rng.New(8))
	covR := run(rsm)

	if math.Abs(covN-covR) > 0.08 {
		t.Fatalf("NDCA CO coverage %v vs RSM %v", covN, covR)
	}
}

// minimal RSM reimplementation to avoid an import cycle in tests (dmc
// imports nothing from ca, but keep the packages decoupled here too).
type miniRSM struct {
	cm    *model.Compiled
	cfg   *lattice.Config
	cells []lattice.Species
	src   *rng.Source
}

func newRSMForTest(cm *model.Compiled, cfg *lattice.Config, src *rng.Source) *miniRSM {
	return &miniRSM{cm: cm, cfg: cfg, cells: cfg.Cells(), src: src}
}

func (r *miniRSM) Step() bool {
	n := r.cm.Lat.N()
	for i := 0; i < n; i++ {
		s := r.src.Intn(n)
		rt := r.cm.PickType(r.src.Float64())
		r.cm.TryExecute(r.cells, rt, s)
	}
	return true
}

func (r *miniRSM) Config() *lattice.Config { return r.cfg }

func TestSyncNDCAConflictsOnDiffusion(t *testing.T) {
	// Fig. 2 scenario: dense diffusing particles must generate
	// conflicts under synchronous update.
	m := model.NewDimerDiffusion(1)
	lat := lattice.NewSquare(20)
	cm := model.MustCompile(m, lat)
	cfg := lattice.NewConfig(lat)
	src := rng.New(9)
	cfg.Randomize([]float64{0.5, 0.5}, src.Float64)
	a := NewSyncNDCA(cm, cfg, src)
	particles := cfg.Count(1)
	for i := 0; i < 20; i++ {
		a.Step()
	}
	if a.Conflicts() == 0 {
		t.Fatal("no conflicts detected in dense synchronous diffusion")
	}
	if a.Executed() == 0 {
		t.Fatal("nothing executed")
	}
	// Conservation: diffusion must never create or destroy particles —
	// this is exactly the physical law the conflict resolution protects.
	if got := cfg.Count(1); got != particles {
		t.Fatalf("particle count changed %d -> %d", particles, got)
	}
}

func TestSyncNDCANoConflictsWhenSparse(t *testing.T) {
	// A single particle can never conflict with itself.
	m := model.NewDimerDiffusion(1)
	lat := lattice.NewSquare(16)
	cm := model.MustCompile(m, lat)
	cfg := lattice.NewConfig(lat)
	cfg.Set(0, 1)
	a := NewSyncNDCA(cm, cfg, rng.New(11))
	for i := 0; i < 50; i++ {
		a.Step()
	}
	if a.Conflicts() != 0 {
		t.Fatalf("lone particle produced %d conflicts", a.Conflicts())
	}
	if cfg.Count(1) != 1 {
		t.Fatal("lone particle not conserved")
	}
}

func TestBCAConfinement(t *testing.T) {
	m := model.NewZGB(model.DefaultZGBRates())
	lat := lattice.NewSquare(12)
	cm := model.MustCompile(m, lat)
	cfg := lattice.NewConfig(lat)
	b, err := NewBCA(cm, cfg, rng.New(12), 4, 4, []lattice.Vec{{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		b.Step()
	}
	if b.Rejected() == 0 {
		t.Fatal("static tiling never rejected an edge-crossing reaction")
	}
	if b.Successes() == 0 {
		t.Fatal("nothing executed")
	}
	if b.Trials() != uint64(30*lat.N()) {
		t.Fatalf("trials %d, want %d", b.Trials(), 30*lat.N())
	}
}

func TestBCAShiftingReducesNothingButMovesEdges(t *testing.T) {
	m := model.NewZGB(model.DefaultZGBRates())
	lat := lattice.NewSquare(12)
	cm := model.MustCompile(m, lat)
	cfg := lattice.NewConfig(lat)
	b, err := NewBCA(cm, cfg, rng.New(13), 4, 4,
		[]lattice.Vec{{}, {DX: 2, DY: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.Step()
	}
	// With shifting origins O2 can eventually adsorb across every bond;
	// verify O appeared despite edge rejections.
	if cfg.Count(model.ZGBO) == 0 {
		t.Fatal("no O adsorbed under shifting tilings")
	}
}

func TestBCAErrors(t *testing.T) {
	m := model.NewZGB(model.DefaultZGBRates())
	lat := lattice.NewSquare(12)
	cm := model.MustCompile(m, lat)
	cfg := lattice.NewConfig(lat)
	if _, err := NewBCA(cm, cfg, rng.New(1), 5, 5, []lattice.Vec{{}}); err == nil {
		t.Error("accepted non-dividing block size")
	}
	if _, err := NewBCA(cm, cfg, rng.New(1), 4, 4, nil); err == nil {
		t.Error("accepted empty origin list")
	}
	other := lattice.NewConfig(lattice.NewSquare(8))
	if _, err := NewBCA(cm, other, rng.New(1), 4, 4, []lattice.Vec{{}}); err == nil {
		t.Error("accepted mismatched lattice")
	}
}

func TestBCA1DFig3(t *testing.T) {
	// Nine sites, blocks of three, as in Fig. 3. A zero at a block edge
	// cannot cross into the neighbouring block while the origin is
	// fixed.
	initial := []lattice.Species{0, 1, 1, 1, 1, 1, 0, 1, 1}
	states, err := BCA1D(initial, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Block {0,1,2}: zero at 0 kills 1; blocks {3,4,5}: untouched;
	// block {6,7,8}: zero at 6 kills 7.
	want := []lattice.Species{0, 0, 1, 1, 1, 1, 0, 0, 1}
	for i, v := range want {
		if states[1][i] != v {
			t.Fatalf("after 1 static step: %v, want %v", states[1], want)
		}
	}
	// With the boundary static forever, sites 3..5 never die.
	states, _ = BCA1D(initial, 3, 0, 10)
	final := states[len(states)-1]
	if final[4] != 1 {
		t.Fatal("zero crossed a static block boundary")
	}
	// With a shifting origin (the Fig. 3 mechanism) the zeros reach
	// every site.
	states, _ = BCA1D(initial, 3, 1, 12)
	final = states[len(states)-1]
	for i, v := range final {
		if v != 0 {
			t.Fatalf("site %d survived shifting-block dynamics: %v", i, final)
		}
	}
}

func TestBCA1DErrors(t *testing.T) {
	if _, err := BCA1D([]lattice.Species{1, 1}, 3, 0, 1); err == nil {
		t.Error("accepted non-dividing block size")
	}
	if _, err := BCA1D(nil, 3, 0, 1); err == nil {
		t.Error("accepted empty lattice")
	}
}

func BenchmarkNDCAStepZGB(b *testing.B) {
	cm, cfg, src := ndcaSetup(b, 64, 1)
	a := NewNDCA(cm, cfg, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step()
	}
}

func BenchmarkSyncNDCAStepZGB(b *testing.B) {
	cm, cfg, src := ndcaSetup(b, 64, 1)
	a := NewSyncNDCA(cm, cfg, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step()
	}
}
