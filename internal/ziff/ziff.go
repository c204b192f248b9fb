// Package ziff implements the original Ziff–Gulari–Barshad surface
// reaction model (Phys. Rev. Lett. 56, 2553, cited as the paper's
// example system) in its classic adsorption-limited form: CO and O2
// impinge with probabilities y and 1−y, adsorb on vacant sites, and
// adsorbed CO and O on adjacent sites react *instantaneously* to CO2.
//
// This is the infinite-reaction-rate limit of the finite-rate model in
// internal/model; it is the standard formulation whose kinetic phase
// diagram has an O-poisoned phase below y1 ≈ 0.39, a reactive window,
// and a CO-poisoned phase above y2 ≈ 0.525 (first-order transition).
// The package provides the sweep the paper's introduction refers to
// ("experimental data for the simulation of Ziff model").
package ziff

import (
	"fmt"

	"parsurf/internal/lattice"
	"parsurf/internal/rng"
)

// Species on the ZGB lattice.
const (
	Empty lattice.Species = 0
	CO    lattice.Species = 1
	O     lattice.Species = 2
)

// ZGB is the classic adsorption-limited simulation.
type ZGB struct {
	lat   *lattice.Lattice
	cfg   *lattice.Config
	cells []lattice.Species
	src   *rng.Source

	// Y is the CO fraction of the impinging gas.
	Y float64

	// vac is a bitset of vacant sites and nEmpty its population count,
	// maintained incrementally by every site write so Poisoned is O(1)
	// instead of a full lattice scan per MC step.
	vac    []uint64
	nEmpty int

	steps  uint64
	trials uint64
	co2    uint64
	nbOff  []lattice.Vec
}

// New returns a ZGB simulation with CO fraction y on an empty lattice.
func New(lat *lattice.Lattice, src *rng.Source, y float64) *ZGB {
	return NewOn(lattice.NewConfig(lat), src, y)
}

// NewOn returns a ZGB simulation with CO fraction y operating on cfg in
// place (the classic dynamics start from an empty surface; a pre-seeded
// cfg is accepted as-is).
func NewOn(cfg *lattice.Config, src *rng.Source, y float64) *ZGB {
	if y < 0 || y > 1 {
		panic(fmt.Sprintf("ziff: CO fraction %v outside [0,1]", y))
	}
	z := &ZGB{
		lat:   cfg.Lattice(),
		cfg:   cfg,
		cells: cfg.Cells(),
		src:   src,
		Y:     y,
		nbOff: lattice.Axes4(),
	}
	z.ResyncVacancies()
	return z
}

// Reset rewinds the simulation over a fresh configuration (see
// registry.Engine.Reset): counters return to zero, the vacancy bitset
// and count are re-derived from cfg in place, and all
// randomness redirects to src. The CO fraction Y is preserved. It
// panics when cfg's lattice shape differs from the engine's.
func (z *ZGB) Reset(cfg *lattice.Config, src *rng.Source) {
	if !cfg.Lattice().SameShape(z.lat) {
		panic("ziff: Reset configuration lattice differs from engine lattice")
	}
	z.lat = cfg.Lattice()
	z.cfg, z.cells, z.src = cfg, cfg.Cells(), src
	z.steps, z.trials, z.co2 = 0, 0, 0
	z.ResyncVacancies()
}

// ResyncVacancies rebuilds the vacancy bitset and count from the
// configuration. The constructor calls it once; callers that mutate the
// configuration directly (through Config().Set rather than the
// simulation's own dynamics) must call it again before using Poisoned
// or Step.
func (z *ZGB) ResyncVacancies() {
	n := z.lat.N()
	if z.vac == nil {
		z.vac = make([]uint64, (n+63)/64)
	} else {
		for i := range z.vac {
			z.vac[i] = 0
		}
	}
	z.nEmpty = 0
	for s, sp := range z.cells {
		if sp == Empty {
			z.vac[uint(s)>>6] |= 1 << (uint(s) & 63)
			z.nEmpty++
		}
	}
}

// set writes species sp at site s, keeping the vacancy bitset and count
// in sync. All simulation writes go through here.
func (z *ZGB) set(s int, sp lattice.Species) {
	old := z.cells[s]
	if (old == Empty) != (sp == Empty) {
		z.vac[uint(s)>>6] ^= 1 << (uint(s) & 63)
		if sp == Empty {
			z.nEmpty++
		} else {
			z.nEmpty--
		}
	}
	z.cells[s] = sp
}

// Config returns the live configuration.
func (z *ZGB) Config() *lattice.Config { return z.cfg }

// Time returns the elapsed Monte Carlo steps (trials/N).
func (z *ZGB) Time() float64 { return float64(z.trials) / float64(z.lat.N()) }

// CO2Count returns the number of CO2 molecules produced.
func (z *ZGB) CO2Count() uint64 { return z.co2 }

// reactWithNeighbour looks for partner species around site s; if any
// neighbour holds it, one is chosen uniformly and both sites are
// vacated. Reports whether a reaction fired.
func (z *ZGB) reactWithNeighbour(s int, partner lattice.Species) bool {
	var candidates [4]int
	n := 0
	for _, d := range z.nbOff {
		t := z.lat.Translate(s, d)
		if z.cells[t] == partner {
			candidates[n] = t
			n++
		}
	}
	if n == 0 {
		return false
	}
	t := candidates[z.src.Intn(n)]
	z.set(s, Empty)
	z.set(t, Empty)
	z.co2++
	return true
}

// Trial performs one ZGB trial.
func (z *ZGB) Trial() {
	z.trials++
	s := z.src.Intn(z.lat.N())
	if z.src.Float64() < z.Y {
		// CO impingement.
		if z.cells[s] != Empty {
			return
		}
		z.set(s, CO)
		z.reactWithNeighbour(s, O)
		return
	}
	// O2 impingement onto s and a random neighbour.
	t := z.lat.Translate(s, z.nbOff[z.src.Intn(4)])
	if z.cells[s] != Empty || z.cells[t] != Empty {
		return
	}
	z.set(s, O)
	z.set(t, O)
	// Each nascent O scans for CO; order randomised to avoid bias.
	first, second := s, t
	if z.src.Bernoulli(0.5) {
		first, second = t, s
	}
	z.reactWithNeighbour(first, CO)
	if z.cells[second] == O {
		z.reactWithNeighbour(second, CO)
	}
}

// Step performs one MC step (N trials). It reports false from the
// poisoned absorbing state (no vacancies: nothing can adsorb, so the
// classic dynamics cannot evolve further), leaving the state and the
// random stream untouched, per the Simulator/Engine contract.
//
//surflint:hotpath
func (z *ZGB) Step() bool {
	if z.nEmpty == 0 {
		return false
	}
	for i := 0; i < z.lat.N(); i++ {
		z.Trial()
	}
	z.steps++
	return true
}

// Poisoned reports whether the lattice is fully covered and inert:
// no vacancies and no adjacent CO/O pair (with instantaneous reaction,
// full coverage by a single species). O(1): the vacancy count is
// maintained incrementally by every site write.
func (z *ZGB) Poisoned() bool {
	return z.nEmpty == 0
}

// PhasePoint is one measured point of the phase diagram.
type PhasePoint struct {
	Y        float64
	CoCO     float64 // CO coverage
	CoO      float64 // O coverage
	CoEmpty  float64 // vacancy fraction
	Rate     float64 // CO2 production per site per MCS over the window
	Poisoned bool
}

// Measure runs a fresh simulation at CO fraction y: equil MC steps of
// relaxation, then measure MC steps of averaging. It stops early when
// the lattice poisons.
func Measure(l int, y float64, equil, measure int, seed uint64) PhasePoint {
	lat := lattice.NewSquare(l)
	z := New(lat, rng.New(seed), y)
	for i := 0; i < equil && !z.Poisoned(); i++ {
		z.Step()
	}
	var sumCO, sumO, sumE float64
	co2Before := z.CO2Count()
	steps := 0
	for i := 0; i < measure; i++ {
		z.Step()
		steps++
		sumCO += z.cfg.Coverage(CO)
		sumO += z.cfg.Coverage(O)
		sumE += z.cfg.Coverage(Empty)
		if z.Poisoned() {
			break
		}
	}
	pt := PhasePoint{Y: y, Poisoned: z.Poisoned()}
	if steps > 0 {
		pt.CoCO = sumCO / float64(steps)
		pt.CoO = sumO / float64(steps)
		pt.CoEmpty = sumE / float64(steps)
		pt.Rate = float64(z.CO2Count()-co2Before) / float64(steps) / float64(lat.N())
	} else {
		pt.CoCO = z.cfg.Coverage(CO)
		pt.CoO = z.cfg.Coverage(O)
		pt.CoEmpty = z.cfg.Coverage(Empty)
	}
	return pt
}

// Transitions estimates the kinetic phase transition points from a
// sweep ordered by increasing y: y1 is the midpoint between the last
// O-poisoned point (O coverage > 0.99) and the first reactive point;
// y2 the midpoint between the last reactive point and the first
// CO-poisoned one (CO coverage > 0.99). Returns NaN-free values only
// when both phases appear in the sweep; ok reports that.
func Transitions(points []PhasePoint) (y1, y2 float64, ok bool) {
	lastO, firstReactive := -1, -1
	lastReactive, firstCO := -1, -1
	for i, p := range points {
		switch {
		case p.CoO > 0.99:
			lastO = i
		case p.CoCO > 0.99:
			if firstCO == -1 {
				firstCO = i
			}
		default:
			if firstReactive == -1 {
				firstReactive = i
			}
			lastReactive = i
		}
	}
	if lastO == -1 || firstReactive == -1 || lastReactive == -1 || firstCO == -1 {
		return 0, 0, false
	}
	y1 = (points[lastO].Y + points[firstReactive].Y) / 2
	y2 = (points[lastReactive].Y + points[firstCO].Y) / 2
	return y1, y2, true
}
