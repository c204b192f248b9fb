package parsurf

import (
	"io"

	"parsurf/internal/cluster"
	"parsurf/internal/model"
	"parsurf/internal/modelfile"
	"parsurf/internal/sim"
	"parsurf/internal/stats"
	"parsurf/internal/trace"
)

// Observation layer (internal/sim).
type (
	// Observer receives samples of the live configuration.
	Observer = sim.Observer
	// ObserverFunc adapts a plain function to the Observer interface.
	ObserverFunc = sim.ObserverFunc
	// CoverageObserver records per-species coverage series.
	CoverageObserver = sim.CoverageObserver
	// SnapshotObserver stores configuration copies.
	SnapshotObserver = sim.SnapshotObserver
	// SteadyState detects equilibration of a scalar series.
	SteadyState = sim.SteadyState
	// ClusterStats summarises connected-component analysis.
	ClusterStats = cluster.Stats
	// Oscillation describes a detected oscillation.
	Oscillation = stats.Oscillation
)

// NewCoverageObserver tracks the coverages of the given species.
func NewCoverageObserver(species ...Species) *CoverageObserver {
	return sim.NewCoverageObserver(species...)
}

// NewSnapshotObserver stores every k-th sampled configuration.
func NewSnapshotObserver(every int) *SnapshotObserver { return sim.NewSnapshotObserver(every) }

// NewSteadyState detects two consecutive windows agreeing within tol.
func NewSteadyState(window int, tol float64) *SteadyState { return sim.NewSteadyState(window, tol) }

// ParseModel reads a model definition in the internal/modelfile text
// format.
func ParseModel(r io.Reader) (*Model, error) { return modelfile.Parse(r) }

// FormatModel writes a model in the text format ParseModel accepts.
func FormatModel(w io.Writer, m *Model) error { return modelfile.Format(w, m) }

// Clusters labels the 4-connected domains of one species and returns
// aggregate statistics.
func Clusters(c *Config, sp Species) ClusterStats {
	return cluster.Summarize(cluster.SpeciesComponents(c, sp))
}

// DetectOscillation estimates the dominant oscillation of a series
// (autocorrelation peak over n resampled points; minStrength gates
// detection).
func DetectOscillation(s *Series, n int, minStrength float64) (Oscillation, bool) {
	return stats.DetectOscillation(s, n, minStrength)
}

// WriteSVG renders series as an SVG line chart.
func WriteSVG(w io.Writer, title string, labels []string, series ...*Series) error {
	return trace.WriteSVG(w, trace.SVGOptions{Title: title, Labels: labels}, series...)
}

// Arrhenius returns ν·exp(−E/(kB·T)), the paper's §2 rate expression.
func Arrhenius(nu, activationEnergy, temp float64) float64 {
	return model.Arrhenius(nu, activationEnergy, temp)
}
