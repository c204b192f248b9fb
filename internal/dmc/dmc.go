// Package dmc implements Dynamic Monte Carlo simulation of the Master
// Equation (§3 of the paper): algorithms whose trajectories are exact
// samples of the stochastic process defined by the reaction rates.
//
// Three algorithms from the Segers taxonomy the paper cites are
// provided:
//
//   - RSM, the Random Selection Method — the paper's reference algorithm
//     and the one its CA methods are compared against;
//   - VSSM, the Variable Step Size Method (Gillespie's direct method)
//     with incremental enabled-reaction bookkeeping;
//   - FRM, the First Reaction Method, with an event queue.
//
// All three sample the same process; VSSM and FRM never waste trials on
// disabled reactions and serve as fast exact baselines and cross-checks.
package dmc

import "parsurf/internal/lattice"

// Simulator is the common interface of all engines in this repository
// (DMC and CA families alike): advance the state and report the current
// simulated time.
type Simulator interface {
	// Step advances the simulation by one algorithm-specific unit
	// (one MC step of N trials for trial-based engines, one reaction
	// event for event-based engines). It reports false when the system
	// cannot evolve further (absorbing state).
	Step() bool
	// Time returns the current simulated time.
	Time() float64
	// Config returns the live configuration.
	Config() *lattice.Config
}
