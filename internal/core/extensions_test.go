package core

import (
	"math"
	"testing"

	"parsurf/internal/lattice"
	"parsurf/internal/registry"
	"parsurf/internal/rng"
)

// Reset keeps the partition, and the rewound engine reproduces a
// freshly built one with the same source.
func TestPNDCAResetMatchesFresh(t *testing.T) {
	cm, lat := zgbOn(t, 10)
	build := func() *PNDCA {
		return NewPNDCA(cm, lattice.NewConfig(lat), rng.New(54), vn5(t, lat))
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
