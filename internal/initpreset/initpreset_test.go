package initpreset

import (
	"math"
	"strings"
	"testing"

	"parsurf/internal/lattice"
	"parsurf/internal/rng"
)

func apply(t *testing.T, name string, p Params, side int) *lattice.Config {
	t.Helper()
	fn, err := Build(name, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lattice.NewConfig(lattice.NewSquare(side))
	fn(cfg, rng.New(9))
	return cfg
}

func TestRegistryLists(t *testing.T) {
	names := Names()
	for _, want := range []string{"empty", "fill", "random", "checkerboard"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("preset %q not registered (have %v)", want, names)
		}
	}
}

func TestEmptyAndFill(t *testing.T) {
	cfg := apply(t, "empty", Params{}, 8)
	if got := cfg.Count(0); got != 64 {
		t.Errorf("empty left %d of 64 sites vacant", got)
	}
	cfg = apply(t, "fill", Params{Species: []int{2}}, 8)
	if got := cfg.Count(2); got != 64 {
		t.Errorf("fill covered %d of 64 sites", got)
	}
}

func TestRandomDeterministicPerStream(t *testing.T) {
	p := Params{Fractions: []float64{0.5, 0.3, 0.2}}
	a := apply(t, "random", p, 16)
	b := apply(t, "random", p, 16)
	if !a.Equal(b) {
		t.Error("same stream, different surfaces")
	}
	total := a.Count(0) + a.Count(1) + a.Count(2)
	if total != 256 {
		t.Errorf("species outside the weight set: %d of 256 accounted", total)
	}
	if a.Count(0) == 256 {
		t.Error("random draw produced the all-vacant surface")
	}
}

func TestCheckerboard(t *testing.T) {
	cfg := apply(t, "checkerboard", Params{Species: []int{1, 2}}, 6)
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			want := lattice.Species(1)
			if (x+y)%2 == 1 {
				want = 2
			}
			if got := cfg.GetXY(x, y); got != want {
				t.Fatalf("site (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
	// Default species pair.
	cfg = apply(t, "checkerboard", Params{}, 4)
	if cfg.Count(0) != 8 || cfg.Count(1) != 8 {
		t.Errorf("default checkerboard counts: %d/%d", cfg.Count(0), cfg.Count(1))
	}
}

func TestParamValidation(t *testing.T) {
	cases := []struct {
		name   string
		preset string
		p      Params
		substr string
	}{
		{"unknown preset", "stripes", Params{}, "unknown preset"},
		{"empty with params", "empty", Params{Species: []int{1}}, "no parameters"},
		{"fill without species", "fill", Params{}, "exactly one"},
		{"fill species range", "fill", Params{Species: []int{400}}, "outside"},
		{"random too few", "random", Params{Fractions: []float64{1}}, "at least two"},
		{"random negative", "random", Params{Fractions: []float64{0.5, -0.1}}, "negative"},
		{"random zero total", "random", Params{Fractions: []float64{0, 0}}, "positive total"},
		{"random NaN", "random", Params{Fractions: []float64{0.5, math.NaN()}}, "finite"},
		{"random +Inf", "random", Params{Fractions: []float64{math.Inf(1), 0.5}}, "finite"},
		{"random total overflows", "random", Params{Fractions: []float64{math.MaxFloat64, math.MaxFloat64}}, "finite positive total"},
		{"checkerboard one species", "checkerboard", Params{Species: []int{1}}, "exactly two"},
	}
	for _, tc := range cases {
		_, err := Build(tc.preset, tc.p)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.substr)
		}
	}
}
