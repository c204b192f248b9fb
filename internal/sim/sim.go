// Package sim provides the observation layer on top of the simulation
// engines: composable observers that sample coverages and lattice
// snapshots at fixed simulated-time intervals, plus a
// steady-state detector. Engines stay minimal (Step/Time/Config); this
// package owns the bookkeeping every experiment needs.
package sim

import (
	"parsurf/internal/lattice"
	"parsurf/internal/stats"
)

// Observer receives a callback at every sample point.
type Observer interface {
	// Observe is called with the current simulated time and the live
	// configuration. Implementations must not mutate the configuration.
	Observe(t float64, cfg *lattice.Config)
}

// CoverageObserver records one time series per tracked species.
type CoverageObserver struct {
	Species []lattice.Species
	Series  []*stats.Series
}

// NewCoverageObserver tracks the given species.
func NewCoverageObserver(species ...lattice.Species) *CoverageObserver {
	o := &CoverageObserver{Species: species}
	for range species {
		o.Series = append(o.Series, &stats.Series{})
	}
	return o
}

// Observe implements Observer.
func (o *CoverageObserver) Observe(t float64, cfg *lattice.Config) {
	for i, sp := range o.Species {
		o.Series[i].Append(t, cfg.Coverage(sp))
	}
}

// SnapshotObserver stores deep copies of the configuration at every
// k-th sample (k=1 stores all).
type SnapshotObserver struct {
	Every     int
	Times     []float64
	Snapshots []*lattice.Config
	count     int
}

// NewSnapshotObserver stores every k-th sample.
func NewSnapshotObserver(every int) *SnapshotObserver {
	if every < 1 {
		every = 1
	}
	return &SnapshotObserver{Every: every}
}

// Observe implements Observer.
func (o *SnapshotObserver) Observe(t float64, cfg *lattice.Config) {
	if o.count%o.Every == 0 {
		o.Times = append(o.Times, t)
		o.Snapshots = append(o.Snapshots, cfg.Clone())
	}
	o.count++
}

// SteadyState watches a coverage series and reports equilibration: the
// mean of the last window differs from the mean of the window before it
// by less than tol.
type SteadyState struct {
	Window int
	Tol    float64
	values []float64
}

// NewSteadyState requires two consecutive windows of the given length
// to agree within tol.
func NewSteadyState(window int, tol float64) *SteadyState {
	if window < 1 {
		panic("sim: non-positive steady-state window")
	}
	return &SteadyState{Window: window, Tol: tol}
}

// Add records a value and reports whether the series has equilibrated.
// Only the last 2·Window values are retained, so memory stays bounded
// on arbitrarily long runs.
func (ss *SteadyState) Add(v float64) bool {
	ss.values = append(ss.values, v)
	if keep := 2 * ss.Window; len(ss.values) > keep {
		copy(ss.values, ss.values[len(ss.values)-keep:])
		ss.values = ss.values[:keep]
	}
	return ss.Reached()
}

// Reached reports whether the last two windows agree within Tol.
func (ss *SteadyState) Reached() bool {
	n := len(ss.values)
	if n < 2*ss.Window {
		return false
	}
	recent := stats.Mean(ss.values[n-ss.Window:])
	prior := stats.Mean(ss.values[n-2*ss.Window : n-ss.Window])
	diff := recent - prior
	if diff < 0 {
		diff = -diff
	}
	return diff <= ss.Tol
}
