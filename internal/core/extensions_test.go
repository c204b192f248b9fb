package core

import (
	"math"
	"testing"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/partition"
	"parsurf/internal/registry"
	"parsurf/internal/rng"
)

// Reset keeps the partition and the chunk permutation buffer, and the
// rewound engine reproduces a freshly built one with the same source.
func TestPNDCAResetMatchesFresh(t *testing.T) {
	cm, lat := zgbOn(t, 10)
	build := func() *PNDCA {
		p := NewPNDCA(cm, lattice.NewConfig(lat), rng.New(54), vn5(t, lat))
		p.Order = RandomOrder
		return p
	}
	fresh := build()
	reused := build()
	for i := 0; i < 2; i++ {
		reused.Step()
	}
	reused.Reset(lattice.NewConfig(lat), rng.New(54))
	for i := 0; i < 2; i++ {
		fresh.Step()
		reused.Step()
	}
	if !fresh.Config().Equal(reused.Config()) {
		t.Error("Reset engine's trajectory differs from a fresh engine's")
	}
	if math.Float64bits(fresh.Time()) != math.Float64bits(reused.Time()) ||
		fresh.Successes() != reused.Successes() {
		t.Errorf("Reset engine: time %v successes %d, fresh: time %v successes %d",
			reused.Time(), reused.Successes(), fresh.Time(), fresh.Successes())
	}
}

// Thinning the type-partitioned sweep (Accept < 1) breaks the
// all-at-once correlation: the first O2 sweep no longer covers the
// whole lattice.
func TestTypePartitionedThinning(t *testing.T) {
	m := model.NewZGB(model.ZGBRates{KCO: 1, KO2: 1, KCO2: 1})
	lat := lattice.NewSquare(10)
	cm := model.MustCompile(m, lat)
	ts, err := partition.SplitByDirection(cm.Model, lat)
	if err != nil {
		t.Fatal(err)
	}

	// Literal algorithm: O-poisoned almost immediately (seed 36 is the
	// trajectory pinned in TestTypePartitionedZGBMassSweepBias).
	cfgFull := lattice.NewConfig(lat)
	full := NewTypePartitioned(cm, cfgFull, rng.New(36), ts)
	for i := 0; i < 50; i++ {
		full.Step()
	}
	if cfgFull.Count(model.ZGBO) != lat.N() {
		t.Fatal("precondition: literal sweeps should O-poison")
	}

	// Thinned: both species coexist for an extended run.
	cfgThin := lattice.NewConfig(lat)
	thin := NewTypePartitioned(cm, cfgThin, rng.New(36), ts)
	thin.Accept = 0.1
	sawCO := false
	for i := 0; i < 300; i++ {
		thin.Step()
		if cfgThin.Count(model.ZGBCO) > 0 {
			sawCO = true
		}
	}
	if !sawCO {
		t.Fatal("thinned sweeps never adsorbed CO")
	}
}

// Thinning must advance the clock by Accept/(N·K) per visit so the
// per-site execution rate stays calibrated: at Accept=0.5 the same
// number of sweeps covers half the simulated time.
func TestTypePartitionedThinningClock(t *testing.T) {
	m := model.NewDimerDiffusion(1)
	lat := lattice.NewSquare(12)
	cm := model.MustCompile(m, lat)
	ts, err := partition.SplitByDirection(cm.Model, lat)
	if err != nil {
		t.Fatal(err)
	}
	run := func(accept float64) float64 {
		cfg := lattice.NewConfig(lat)
		e := NewTypePartitioned(cm, cfg, rng.New(55), ts)
		e.Accept = accept
		e.DeterministicTime = true
		for i := 0; i < 10; i++ {
			e.Step()
		}
		return e.Time()
	}
	t1 := run(1)
	tHalf := run(0.5)
	if tHalf <= t1*0.45 || tHalf >= t1*0.55 {
		t.Fatalf("Accept=0.5 clock %v, want ~0.5x of %v", tHalf, t1)
	}
}

func TestTypePartitionedAcceptIgnoresInvalid(t *testing.T) {
	cm, lat := zgbOn(t, 10)
	ts, err := partition.SplitByDirection(cm.Model, lat)
	if err != nil {
		t.Fatal(err)
	}
	e := NewTypePartitioned(cm, lattice.NewConfig(lat), rng.New(56), ts)
	e.Accept = -3 // treated as 1
	e.Step()
	if e.Visits() == 0 {
		t.Fatal("invalid Accept stalled the engine")
	}
}

// The lpndca factory trusts registry.CheckOptions to have vetted the
// strategy name, so the registry must accept exactly the names
// ParseStrategy maps.
func TestStrategyNamesMatchRegistry(t *testing.T) {
	for s := AllInOrder; s <= RateWeighted; s++ {
		name := s.String()
		if got, err := ParseStrategy(name); err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, s)
		}
		if err := registry.CheckOptions("lpndca", registry.Options{Strategy: name}); err != nil {
			t.Errorf("registry rejects strategy %q: %v", name, err)
		}
	}
	if err := registry.CheckOptions("lpndca", registry.Options{Strategy: "bogus"}); err == nil {
		t.Error("registry accepts an unknown strategy")
	}
}
