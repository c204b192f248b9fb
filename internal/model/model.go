// Package model implements the reaction formalism of §2 of the paper: a
// finite species domain D, reaction types given as collections of
// (site, source, target) triples relative to the site they are applied
// at, rate constants, and the state-transition semantics (a reaction type
// is enabled at s when its source pattern matches; executing it writes
// the target pattern).
//
// The package also provides the concrete models the paper uses: the
// CO-oxidation / Ziff–Gulari–Barshad model of Table I, the Pt(100)
// surface-reconstruction model used for the oscillation experiments, and
// several auxiliary models (dimer diffusion, Ising spin flips, single-file
// diffusion) referenced in the discussion of CA biases.
package model

import (
	"fmt"
	"math"

	"parsurf/internal/lattice"
)

// Triple is one element of a reaction type's transformation: the site at
// offset Off must hold Src for the reaction to be enabled, and is
// rewritten to Tgt when the reaction executes. This is the (t.site,
// t.src, t.tg) of the paper with the site expressed as a translation-
// invariant offset.
type Triple struct {
	Off lattice.Vec
	Src lattice.Species
	Tgt lattice.Species
}

// ReactionType is an instance-generating rule: applied at a site s it
// denotes the reaction replacing the source pattern around s with the
// target pattern, at rate Rate (probability per unit time).
type ReactionType struct {
	Name    string
	Rate    float64
	Triples []Triple
}

// Enabled reports whether the reaction type's source pattern matches at
// site s in configuration c.
func (rt *ReactionType) Enabled(c *lattice.Config, s int) bool {
	lat := c.Lattice()
	for _, tr := range rt.Triples {
		if c.Get(lat.Translate(s, tr.Off)) != tr.Src {
			return false
		}
	}
	return true
}

// Execute applies the reaction type at site s, writing the target
// pattern. The caller is responsible for having checked Enabled; Execute
// does not re-verify.
func (rt *ReactionType) Execute(c *lattice.Config, s int) {
	lat := c.Lattice()
	for _, tr := range rt.Triples {
		c.Set(lat.Translate(s, tr.Off), tr.Tgt)
	}
}

// Model is a species domain plus a set of reaction types.
type Model struct {
	// Species names the domain D; index is the lattice.Species value.
	// Species[0] is conventionally the vacant site "*".
	Species []string
	Types   []ReactionType
}

// NumSpecies returns |D|.
func (m *Model) NumSpecies() int { return len(m.Species) }

// K returns the sum of the rate constants of all reaction types, the K
// of the paper's RSM and NDCA algorithms.
func (m *Model) K() float64 {
	k := 0.0
	for i := range m.Types {
		k += m.Types[i].Rate
	}
	return k
}

// CumulativeRates returns the prefix sums of the reaction-type rates,
// used to select a type with probability k_i/K.
func (m *Model) CumulativeRates() []float64 {
	cum := make([]float64, len(m.Types))
	acc := 0.0
	for i := range m.Types {
		acc += m.Types[i].Rate
		cum[i] = acc
	}
	return cum
}

// Validate checks structural sanity of the model: a non-empty domain,
// species indices within the domain, positive finite rates, non-empty
// patterns, each neighbourhood containing the origin (property 1 of the
// paper: s ∈ Nb(s)), and no duplicate offsets within one pattern.
func (m *Model) Validate() error {
	if len(m.Species) == 0 {
		return fmt.Errorf("model: empty species domain")
	}
	if len(m.Species) > 256 {
		return fmt.Errorf("model: more than 256 species")
	}
	if len(m.Types) == 0 {
		return fmt.Errorf("model: no reaction types")
	}
	for i := range m.Types {
		rt := &m.Types[i]
		if rt.Rate <= 0 || math.IsInf(rt.Rate, 0) || math.IsNaN(rt.Rate) {
			return fmt.Errorf("model: reaction %q has invalid rate %v", rt.Name, rt.Rate)
		}
		if len(rt.Triples) == 0 {
			return fmt.Errorf("model: reaction %q has an empty pattern", rt.Name)
		}
		seen := make(map[lattice.Vec]bool, len(rt.Triples))
		origin := false
		for _, tr := range rt.Triples {
			if int(tr.Src) >= len(m.Species) || int(tr.Tgt) >= len(m.Species) {
				return fmt.Errorf("model: reaction %q uses species outside the domain", rt.Name)
			}
			if seen[tr.Off] {
				return fmt.Errorf("model: reaction %q repeats offset %v", rt.Name, tr.Off)
			}
			seen[tr.Off] = true
			if tr.Off == (lattice.Vec{}) {
				origin = true
			}
		}
		if !origin {
			return fmt.Errorf("model: reaction %q neighbourhood does not contain the origin", rt.Name)
		}
	}
	return nil
}

// MaxPatternRadius returns the largest Chebyshev radius of any offset in
// any reaction type, a bound partition builders use.
func (m *Model) MaxPatternRadius() int {
	r := 0
	for i := range m.Types {
		for _, tr := range m.Types[i].Triples {
			if d := abs(tr.Off.DX); d > r {
				r = d
			}
			if d := abs(tr.Off.DY); d > r {
				r = d
			}
		}
	}
	return r
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// SpeciesByName returns the species index for a name, or an error.
func (m *Model) SpeciesByName(name string) (lattice.Species, error) {
	for i, n := range m.Species {
		if n == name {
			return lattice.Species(i), nil
		}
	}
	return 0, fmt.Errorf("model: unknown species %q", name)
}

// TypeByName returns the index of the reaction type with the given name,
// or -1 if absent.
func (m *Model) TypeByName(name string) int {
	for i := range m.Types {
		if m.Types[i].Name == name {
			return i
		}
	}
	return -1
}

// Arrhenius returns the rate constant ν·exp(−E/(kB·T)) of the paper's §2.
// E is the activation energy in joules, temp in kelvin, nu the
// pre-exponential factor.
func Arrhenius(nu, activationEnergy, temp float64) float64 {
	const kB = 1.380649e-23 // J/K
	return nu * math.Exp(-activationEnergy/(kB*temp))
}
