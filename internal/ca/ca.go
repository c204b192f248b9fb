// Package ca implements the Cellular Automaton simulation methods of §4
// of the paper: the Non-Deterministic CA (NDCA) whose per-site reaction
// choice is weighted by the rate constants, a fully synchronous NDCA
// that exposes the conflict problem of Fig. 2, and the Block Cellular
// Automaton (BCA) of §5 with shifting block boundaries (Fig. 3).
//
// The partitioned algorithms derived from these (PNDCA, L-PNDCA and the
// type-partitioned variant — the paper's contribution) live in
// internal/core.
package ca

import (
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
)

// NDCA is the Non-Deterministic Cellular Automaton of §4, in its
// site-sequential reading: each step visits every site once in raster
// order, selects a reaction type with probability k_i/K, executes it if
// enabled, and advances the time exactly like an RSM trial. The
// difference from RSM is the site-selection mechanism — every site
// exactly once per step — which the paper identifies as the source of
// NDCA's bias.
type NDCA struct {
	cm    *model.Compiled
	cfg   *lattice.Config
	cells []lattice.Species
	src   *rng.Source
	time  float64

	// DeterministicTime uses 1/(N·K) per trial instead of Exp(N·K).
	DeterministicTime bool

	steps     uint64
	trials    uint64
	successes uint64
}

// NewNDCA returns an NDCA engine over the compiled model.
func NewNDCA(cm *model.Compiled, cfg *lattice.Config, src *rng.Source) *NDCA {
	if !cfg.Lattice().SameShape(cm.Lat) {
		panic("ca: configuration lattice differs from compiled lattice")
	}
	return &NDCA{cm: cm, cfg: cfg, cells: cfg.Cells(), src: src}
}

// Reset rewinds the engine over a fresh configuration (see
// registry.Engine.Reset).
func (a *NDCA) Reset(cfg *lattice.Config, src *rng.Source) {
	if !cfg.Lattice().SameShape(a.cm.Lat) {
		panic("ca: Reset configuration lattice differs from compiled lattice")
	}
	a.cfg, a.cells, a.src = cfg, cfg.Cells(), src
	a.time = 0
	a.steps, a.trials, a.successes = 0, 0, 0
}

// Step performs one NDCA step: one trial at every site.
//
//surflint:hotpath
func (a *NDCA) Step() bool {
	n := a.cm.Lat.N()
	nk := float64(n) * a.cm.K
	for s := 0; s < n; s++ {
		rt := a.cm.PickType(a.src.Float64())
		if a.cm.TryExecute(a.cells, rt, s) {
			a.successes++
		}
		a.trials++
		if a.DeterministicTime {
			a.time += 1 / nk
		} else {
			a.time += a.src.Exp(nk)
		}
	}
	a.steps++
	return true
}

// Time returns the simulated time.
func (a *NDCA) Time() float64 { return a.time }

// Config returns the live configuration.
func (a *NDCA) Config() *lattice.Config { return a.cfg }

// Trials returns the number of trials attempted.
func (a *NDCA) Trials() uint64 { return a.trials }

// Successes returns the number of executed reactions.
func (a *NDCA) Successes() uint64 { return a.successes }
