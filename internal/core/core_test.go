package core

import (
	"math"
	"testing"

	"parsurf/internal/dmc"
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/parallel"
	"parsurf/internal/partition"
	"parsurf/internal/rng"
)

func zgbOn(t testing.TB, l int) (*model.Compiled, *lattice.Lattice) {
	t.Helper()
	m := model.NewZGB(model.DefaultZGBRates())
	lat := lattice.NewSquare(l)
	cm, err := model.Compile(m, lat)
	if err != nil {
		t.Fatal(err)
	}
	return cm, lat
}

func vn5(t testing.TB, lat *lattice.Lattice) *partition.Partition {
	t.Helper()
	p, err := partition.VonNeumann5(lat)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPNDCAStepCountsTrials(t *testing.T) {
	cm, lat := zgbOn(t, 10)
	cfg := lattice.NewConfig(lat)
	p := NewPNDCA(cm, cfg, rng.New(1), vn5(t, lat))
	p.Step()
	if p.Steps() != 1 {
		t.Fatal("step not counted")
	}
	if p.Successes() == 0 {
		t.Fatal("no reactions on empty lattice")
	}
	if p.Time() <= 0 {
		t.Fatal("time did not advance")
	}
}

func TestPNDCADeterministicSameSeed(t *testing.T) {
	cm, lat := zgbOn(t, 10)
	run := func() *lattice.Config {
		cfg := lattice.NewConfig(lat)
		p := NewPNDCA(cm, cfg, rng.New(5), vn5(t, lat))
		for i := 0; i < 20; i++ {
			p.Step()
		}
		return cfg
	}
	if !run().Equal(run()) {
		t.Fatal("same seed produced different trajectories")
	}
}

// parallelWorkerCounts are the worker counts the bit-identity tests
// sweep with; the last exceeds every chunk of an l×l lattice, so the
// sweep must clamp it to the chunk length.
func parallelWorkerCounts(lat *lattice.Lattice) []int {
	return []int{1, 2, 3, 8, lat.N() + 1}
}

// checkBitIdentical fails unless every run ended in the configuration
// and the clock bits of the first (one-worker) run.
func checkBitIdentical(t *testing.T, workers []int, cfgs []*lattice.Config, times []float64) {
	t.Helper()
	for i := 1; i < len(cfgs); i++ {
		if !cfgs[0].Equal(cfgs[i]) {
			t.Errorf("%d workers changed the trajectory", workers[i])
		}
		if math.Float64bits(times[0]) != math.Float64bits(times[i]) {
			t.Errorf("%d workers changed the clock: %v vs %v", workers[i], times[i], times[0])
		}
	}
}

// The central parallelism claim: sweeping a chunk with any worker count
// yields the *identical* configuration and clock, because the
// non-overlap rule makes in-chunk updates commute, every site has its
// own stream, and the per-site clock increments sum in chunk order.
func TestPNDCAParallelBitIdentical(t *testing.T) {
	cm, lat := zgbOn(t, 20)
	workers := parallelWorkerCounts(lat)
	var cfgs []*lattice.Config
	var times []float64
	for _, w := range workers {
		cfg := lattice.NewConfig(lat)
		p := NewPNDCA(cm, cfg, rng.New(77), vn5(t, lat))
		p.Workers = w
		for i := 0; i < 25; i++ {
			p.Step()
		}
		cfgs = append(cfgs, cfg)
		times = append(times, p.Time())
	}
	checkBitIdentical(t, workers, cfgs, times)
}

func TestPNDCAParallelBitIdenticalPtCO(t *testing.T) {
	m := model.NewPtCO(model.DefaultPtCORates())
	lat := lattice.NewSquare(20)
	cm := model.MustCompile(m, lat)
	p5 := vn5(t, lat)
	run := func(workers int) *lattice.Config {
		cfg := lattice.NewConfig(lat)
		p := NewPNDCA(cm, cfg, rng.New(4), p5)
		p.Workers = workers
		for i := 0; i < 15; i++ {
			p.Step()
		}
		return cfg
	}
	if !run(1).Equal(run(6)) {
		t.Fatal("parallel PtCO sweep diverged from sequential")
	}
}

func TestPNDCAPanicsOnMismatch(t *testing.T) {
	cm, lat := zgbOn(t, 10)
	otherLat := lattice.NewSquare(20)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on partition lattice mismatch")
		}
	}()
	NewPNDCA(cm, lattice.NewConfig(lat), rng.New(1), vn5(t, otherLat))
}

// Paper Fig. 8: L-PNDCA with m=1 (one chunk, any L) is *exactly* RSM —
// same stream, same trajectory.
func TestLPNDCAExactRSMWhenSingleChunk(t *testing.T) {
	cm, lat := zgbOn(t, 12)
	for _, l := range []int{1, 7, 144} {
		cfgL := lattice.NewConfig(lat)
		e := NewLPNDCA(cm, cfgL, rng.New(31), partition.SingleChunk(lat), l)
		cfgR := lattice.NewConfig(lat)
		r := dmc.NewRSM(cm, cfgR, rng.New(31))
		for i := 0; i < 10; i++ {
			e.Step()
			r.Step()
		}
		if !cfgL.Equal(cfgR) {
			t.Fatalf("L=%d: m=1 L-PNDCA diverged from RSM", l)
		}
		if math.Abs(e.Time()-r.Time()) > 1e-12 {
			t.Fatalf("L=%d: clocks differ: %v vs %v", l, e.Time(), r.Time())
		}
	}
}

// Paper Fig. 8: m=N (singletons) with L=1 is exactly RSM.
func TestLPNDCAExactRSMWhenSingletons(t *testing.T) {
	cm, lat := zgbOn(t, 12)
	cfgL := lattice.NewConfig(lat)
	e := NewLPNDCA(cm, cfgL, rng.New(32), partition.Singletons(lat), 1)
	cfgR := lattice.NewConfig(lat)
	r := dmc.NewRSM(cm, cfgR, rng.New(32))
	for i := 0; i < 10; i++ {
		e.Step()
		r.Step()
	}
	if !cfgL.Equal(cfgR) {
		t.Fatal("m=N, L=1 L-PNDCA diverged from RSM")
	}
}

func TestLPNDCAStepIsNTrials(t *testing.T) {
	cm, lat := zgbOn(t, 10)
	for _, strat := range []Strategy{AllInOrder, AllRandomOrder, RandomReplacement, RateWeighted} {
		cfg := lattice.NewConfig(lat)
		e := NewLPNDCA(cm, cfg, rng.New(33), vn5(t, lat), 7)
		e.Strategy = strat
		e.Step()
		if e.Trials() != uint64(lat.N()) {
			t.Errorf("strategy %d: %d trials per step, want %d", strat, e.Trials(), lat.N())
		}
		if e.MCSteps() != 1 {
			t.Errorf("strategy %d: MCSteps %v", strat, e.MCSteps())
		}
	}
}

func TestLPNDCAAllStrategiesProgress(t *testing.T) {
	cm, lat := zgbOn(t, 10)
	for _, strat := range []Strategy{AllInOrder, AllRandomOrder, RandomReplacement, RateWeighted} {
		cfg := lattice.NewConfig(lat)
		e := NewLPNDCA(cm, cfg, rng.New(34), vn5(t, lat), 10)
		e.Strategy = strat
		for i := 0; i < 5; i++ {
			e.Step()
		}
		if e.Successes() == 0 {
			t.Errorf("strategy %d executed nothing", strat)
		}
		sum := cfg.Coverage(0) + cfg.Coverage(1) + cfg.Coverage(2)
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("strategy %d: coverages sum %v", strat, sum)
		}
	}
}

func TestLPNDCARateWeightedTracksEnabledRates(t *testing.T) {
	// On an empty ZGB lattice every chunk has identical enabled rate;
	// after poisoning chunk weights must drop to zero.
	m := model.NewZGB(model.ZGBRates{KCO: 1, KO2: 1, KCO2: 1})
	lat := lattice.NewSquare(10)
	cm := model.MustCompile(m, lat)
	cfg := lattice.NewConfig(lat)
	part := vn5(t, lat)
	tr := newRateTracker(cm, cfg.Cells(), part)
	w0 := tr.chunkWeight(0)
	if w0 <= 0 {
		t.Fatal("empty lattice chunk weight not positive")
	}
	for ci := 1; ci < part.NumChunks(); ci++ {
		if math.Abs(tr.chunkWeight(ci)-w0) > 1e-9 {
			t.Fatal("uniform lattice has non-uniform chunk weights")
		}
	}
	// Poison with CO: only CO+O (disabled, no O) and nothing else...
	// CO fills every site: no adsorption possible, no reaction enabled.
	for s := 0; s < lat.N(); s++ {
		cfg.Set(s, model.ZGBCO)
	}
	tr2 := newRateTracker(cm, cfg.Cells(), part)
	if _, ok := tr2.pick(rng.New(1)); ok {
		t.Fatal("tracker picked a chunk with nothing enabled")
	}
}

func TestRateTrackerIncrementalMatchesRebuild(t *testing.T) {
	cm, lat := zgbOn(t, 10)
	cfg := lattice.NewConfig(lat)
	part := vn5(t, lat)
	src := rng.New(35)
	tr := newRateTracker(cm, cfg.Cells(), part)
	// Run random reactions, keeping the tracker updated.
	for i := 0; i < 2000; i++ {
		s := src.Intn(lat.N())
		rt := cm.PickType(src.Float64())
		if cm.TryExecute(cfg.Cells(), rt, s) {
			tr.afterExecute(rt, s)
		}
	}
	fresh := newRateTracker(cm, cfg.Cells(), part)
	for ci := 0; ci < part.NumChunks(); ci++ {
		if math.Abs(tr.chunkWeight(ci)-fresh.chunkWeight(ci)) > 1e-6 {
			t.Fatalf("chunk %d weight drifted: incremental %v, rebuild %v",
				ci, tr.chunkWeight(ci), fresh.chunkWeight(ci))
		}
	}
}

func TestTypePartitionedZGBMassSweepBias(t *testing.T) {
	// The literal §5 algorithm applies ONE selected type at every site
	// of a chunk. On ZGB, the first O2 sweep covers a checkerboard
	// chunk plus its east neighbours — the whole lattice — so the
	// system O-poisons almost immediately. This is the correlation bias
	// the paper's "trade-off" remark refers to; pin it down.
	m := model.NewZGB(model.ZGBRates{KCO: 1, KO2: 1, KCO2: 1})
	lat := lattice.NewSquare(10)
	cm := model.MustCompile(m, lat)
	ts, err := partition.SplitByDirection(cm.Model, lat)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Verify(); err != nil {
		t.Fatal(err)
	}
	cfg := lattice.NewConfig(lat)
	e := NewTypePartitioned(cm, cfg, rng.New(36), ts)
	for i := 0; i < 50; i++ {
		e.Step()
	}
	if e.Successes() == 0 {
		t.Fatal("type-partitioned engine executed nothing")
	}
	if e.Steps() != 50 || e.Visits() == 0 {
		t.Fatal("bookkeeping wrong")
	}
	if cfg.Count(model.ZGBO) != lat.N() {
		t.Fatalf("expected O poisoning under mass sweeps, got O=%d", cfg.Count(model.ZGBO))
	}
}

func TestTypePartitionedConservesDiffusion(t *testing.T) {
	// On a pure diffusion model the engine must conserve particles
	// and actually move them (all four hop directions get swept).
	m := model.NewDimerDiffusion(1)
	lat := lattice.NewSquare(12)
	cm := model.MustCompile(m, lat)
	ts, err := partition.SplitByDirection(cm.Model, lat)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Verify(); err != nil {
		t.Fatal(err)
	}
	cfg := lattice.NewConfig(lat)
	src := rng.New(44)
	cfg.Randomize([]float64{0.7, 0.3}, src.Float64)
	before := cfg.Clone()
	particles := cfg.Count(1)
	e := NewTypePartitioned(cm, cfg, src, ts)
	for i := 0; i < 50; i++ {
		e.Step()
	}
	if cfg.Count(1) != particles {
		t.Fatalf("particle count changed %d -> %d", particles, cfg.Count(1))
	}
	if cfg.Equal(before) {
		t.Fatal("no particle moved in 50 steps")
	}
	if e.Successes() == 0 {
		t.Fatal("no hops executed")
	}
}

func TestTypePartitionedParallelBitIdentical(t *testing.T) {
	cm, lat := zgbOn(t, 20)
	ts, err := partition.SplitByDirection(cm.Model, lat)
	if err != nil {
		t.Fatal(err)
	}
	workers := parallelWorkerCounts(lat)
	var cfgs []*lattice.Config
	var times []float64
	for _, w := range workers {
		cfg := lattice.NewConfig(lat)
		e := NewTypePartitioned(cm, cfg, rng.New(37), ts)
		e.Workers = w
		for i := 0; i < 30; i++ {
			e.Step()
		}
		cfgs = append(cfgs, cfg)
		times = append(times, e.Time())
	}
	checkBitIdentical(t, workers, cfgs, times)
}

// Step at two workers launches goroutines through the shared fan-out;
// neither the launches nor the chunk sweep may allocate.
func TestPartitionedStepAllocationFree(t *testing.T) {
	cm, lat := zgbOn(t, 60)
	ts, err := partition.SplitByDirection(cm.Model, lat)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPNDCA(cm, lattice.NewConfig(lat), rng.New(1), vn5(t, lat))
	p.Workers = 2
	e := NewTypePartitioned(cm, lattice.NewConfig(lat), rng.New(1), ts)
	e.Workers = 2
	d, err := parallel.NewDDRSM(cm, lattice.NewConfig(lat), rng.New(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name string
		step func() bool
	}{{"pndca", p.Step}, {"typepart", e.Step}, {"ddrsm", d.Step}} {
		if allocs := testing.AllocsPerRun(50, func() { eng.step() }); allocs != 0 {
			t.Errorf("%s Step at 2 workers allocates %v objects per step, want 0", eng.name, allocs)
		}
	}
}

// Kinetic agreement: on the ZGB model in the reactive window, PNDCA,
// L-PNDCA (L=1) and the type-partitioned engine must produce steady
// coverages close to RSM. This is the paper's accuracy claim for small
// L; the tolerance reflects "approximate, not exact".
func TestPartitionedEnginesTrackRSM(t *testing.T) {
	if testing.Short() {
		t.Skip("kinetics comparison is slow")
	}
	cm, lat := zgbOn(t, 40)
	steady := func(sim dmc.Simulator) float64 {
		for i := 0; i < 200; i++ {
			sim.Step()
		}
		total := 0.0
		for i := 0; i < 100; i++ {
			sim.Step()
			total += sim.Config().Coverage(model.ZGBCO)
		}
		return total / 100
	}
	ref := steady(dmc.NewRSM(cm, lattice.NewConfig(lat), rng.New(40)))

	p := NewPNDCA(cm, lattice.NewConfig(lat), rng.New(41), vn5(t, lat))
	if got := steady(p); math.Abs(got-ref) > 0.08 {
		t.Errorf("PNDCA steady CO %v vs RSM %v", got, ref)
	}

	e := NewLPNDCA(cm, lattice.NewConfig(lat), rng.New(42), vn5(t, lat), 1)
	if got := steady(e); math.Abs(got-ref) > 0.08 {
		t.Errorf("L-PNDCA(L=1) steady CO %v vs RSM %v", got, ref)
	}
	// The type-partitioned variant is excluded: its mass sweeps
	// O-poison ZGB (see TestTypePartitionedZGBMassSweepBias).
}

func BenchmarkPNDCAStepZGB(b *testing.B) {
	cm, lat := zgbOn(b, 60)
	cfg := lattice.NewConfig(lat)
	p := NewPNDCA(cm, cfg, rng.New(1), vn5(b, lat))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

func BenchmarkLPNDCAStepZGB(b *testing.B) {
	cm, lat := zgbOn(b, 60)
	cfg := lattice.NewConfig(lat)
	e := NewLPNDCA(cm, cfg, rng.New(1), vn5(b, lat), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkTypePartitionedStepZGB(b *testing.B) {
	cm, lat := zgbOn(b, 60)
	ts, err := partition.SplitByDirection(cm.Model, lat)
	if err != nil {
		b.Fatal(err)
	}
	cfg := lattice.NewConfig(lat)
	e := NewTypePartitioned(cm, cfg, rng.New(1), ts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
