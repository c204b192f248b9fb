// Package initpreset is the named registry of initial-configuration
// presets: the serializable replacement for the init closures the
// Session API used to accept. A preset is a name plus plain-data
// parameters, so an initial condition can live in a JSON session spec
// and be replayed bit-identically — the preset draws only from the
// random stream it is handed (the session's dedicated init stream), so
// using one never perturbs the engine's stream.
package initpreset

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"parsurf/internal/lattice"
	"parsurf/internal/rng"
)

// Params carries every preset parameter. Presets consume the fields
// they understand and reject the rest, so a spec cannot silently carry
// meaningless parameters.
type Params struct {
	// Fractions are per-species weights ("random"): species i is drawn
	// with probability Fractions[i]/Σ. Need not be normalised.
	Fractions []float64
	// Species selects explicit species values ("fill" takes one,
	// "checkerboard" takes the two alternating values).
	Species []int
}

// Func applies a resolved preset to a configuration using the given
// random stream.
type Func func(cfg *lattice.Config, src *rng.Source)

// Spec describes one registered preset.
type Spec struct {
	// Name is the registry key ("empty", "random", …).
	Name string
	// Build validates the parameters and returns the initialiser.
	Build func(p Params) (Func, error)
}

var presets = map[string]Spec{}

// Register adds a preset; duplicate names and incomplete specs panic
// (programming errors caught at process start).
func Register(s Spec) {
	if s.Name == "" || s.Build == nil {
		panic("initpreset: Register with empty name or nil builder")
	}
	if _, dup := presets[s.Name]; dup {
		panic(fmt.Sprintf("initpreset: preset %q registered twice", s.Name))
	}
	presets[s.Name] = s
}

// Names returns the registered preset names, sorted.
func Names() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Build resolves a preset by name and validates its parameters.
func Build(name string, p Params) (Func, error) {
	s, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("initpreset: unknown preset %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	fn, err := s.Build(p)
	if err != nil {
		return nil, fmt.Errorf("initpreset: preset %q: %w", name, err)
	}
	return fn, nil
}

// randomize assigns each site an independent draw from the weights —
// the same per-site arithmetic as Config.Randomize (one uniform per
// site, u·total against the running prefix sum), bit for bit, but
// taking the source directly: Config.Randomize's func parameter would
// force a bound-method allocation per application, and preset
// application sits on the per-replica Session.Reset path that must
// stay allocation-free. The caller (the "random" builder) has already
// validated the weights.
func randomize(cfg *lattice.Config, weights []float64, src *rng.Source) {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	cells := cfg.Cells()
	for i := range cells {
		u := src.Float64() * total
		acc := 0.0
		for sp, w := range weights {
			acc += w
			if u < acc {
				cells[i] = lattice.Species(sp)
				break
			}
		}
	}
}

// checkSpecies validates explicit species values: they must fit the
// lattice.Species storage. Whether a value is meaningful for the
// session's model is the model's business, exactly as with Config.Set.
func checkSpecies(sp []int) error {
	for _, v := range sp {
		if v < 0 || v > 255 {
			return fmt.Errorf("species value %d outside [0, 255]", v)
		}
	}
	return nil
}

func init() {
	// empty: every site vacant (species 0); no parameters.
	Register(Spec{
		Name: "empty",
		Build: func(p Params) (Func, error) {
			if len(p.Fractions) > 0 || len(p.Species) > 0 {
				return nil, fmt.Errorf("takes no parameters")
			}
			return func(cfg *lattice.Config, _ *rng.Source) {
				cfg.Fill(0)
			}, nil
		},
	})
	// fill: every site one species; species: [s].
	Register(Spec{
		Name: "fill",
		Build: func(p Params) (Func, error) {
			if len(p.Fractions) > 0 {
				return nil, fmt.Errorf("takes no fractions")
			}
			if len(p.Species) != 1 {
				return nil, fmt.Errorf("needs exactly one species value, got %d", len(p.Species))
			}
			if err := checkSpecies(p.Species); err != nil {
				return nil, err
			}
			sp := lattice.Species(p.Species[0])
			return func(cfg *lattice.Config, _ *rng.Source) {
				cfg.Fill(sp)
			}, nil
		},
	})
	// random: independent per-site draw; fractions: per-species
	// weights, index = species value.
	Register(Spec{
		Name: "random",
		Build: func(p Params) (Func, error) {
			if len(p.Species) > 0 {
				return nil, fmt.Errorf("takes no species list (weights are indexed by species value)")
			}
			if len(p.Fractions) < 2 {
				return nil, fmt.Errorf("needs at least two per-species fractions, got %d", len(p.Fractions))
			}
			total := 0.0
			for i, w := range p.Fractions {
				if !(w >= 0) || math.IsInf(w, 1) {
					return nil, fmt.Errorf("fraction %d is not a finite non-negative weight (%v)", i, w)
				}
				total += w
			}
			if !(total > 0) || math.IsInf(total, 1) {
				return nil, fmt.Errorf("fractions sum to %v, need a finite positive total", total)
			}
			weights := append([]float64(nil), p.Fractions...)
			return func(cfg *lattice.Config, src *rng.Source) {
				randomize(cfg, weights, src)
			}, nil
		},
	})
	// checkerboard: alternate two species by site parity; species:
	// [a, b] (default [0, 1]).
	Register(Spec{
		Name: "checkerboard",
		Build: func(p Params) (Func, error) {
			if len(p.Fractions) > 0 {
				return nil, fmt.Errorf("takes no fractions")
			}
			a, b := 0, 1
			switch len(p.Species) {
			case 0:
			case 2:
				if err := checkSpecies(p.Species); err != nil {
					return nil, err
				}
				a, b = p.Species[0], p.Species[1]
			default:
				return nil, fmt.Errorf("needs exactly two species values, got %d", len(p.Species))
			}
			spA, spB := lattice.Species(a), lattice.Species(b)
			return func(cfg *lattice.Config, _ *rng.Source) {
				lat := cfg.Lattice()
				for y := 0; y < lat.L1; y++ {
					for x := 0; x < lat.L0; x++ {
						if (x+y)%2 == 0 {
							cfg.SetXY(x, y, spA)
						} else {
							cfg.SetXY(x, y, spB)
						}
					}
				}
			}, nil
		},
	})
}
