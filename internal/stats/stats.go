// Package stats provides the statistical machinery the experiments and
// tests need: online moments, time series with resampling, autocorrelation
// and oscillation (period/amplitude) estimation for the Figs. 8–10
// comparisons, RMS deviation between series, and the Kolmogorov–Smirnov
// and chi-square tests used to check the Segers correctness criteria.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates mean and variance online (Welford's algorithm).
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add accumulates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for no data).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 for fewer than two
// observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MinMax returns the extrema of xs; it panics on empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return
}

// Series is a sampled time series (t_i, x_i) with strictly increasing
// times.
type Series struct {
	T []float64
	X []float64
}

// Append adds a point; times must be non-decreasing.
func (s *Series) Append(t, x float64) {
	if n := len(s.T); n > 0 && t < s.T[n-1] {
		panic(fmt.Sprintf("stats: series time went backwards: %v after %v", t, s.T[n-1]))
	}
	s.T = append(s.T, t)
	s.X = append(s.X, x)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.T) }

// At linearly interpolates the series at time t, clamping outside the
// sampled range. It panics on an empty series.
func (s *Series) At(t float64) float64 {
	n := len(s.T)
	if n == 0 {
		panic("stats: At on empty series")
	}
	if t <= s.T[0] {
		return s.X[0]
	}
	if t >= s.T[n-1] {
		return s.X[n-1]
	}
	i := sort.SearchFloat64s(s.T, t)
	// s.T[i-1] < t <= s.T[i]
	t0, t1 := s.T[i-1], s.T[i]
	if t1 == t0 {
		return s.X[i]
	}
	frac := (t - t0) / (t1 - t0)
	return s.X[i-1] + frac*(s.X[i]-s.X[i-1])
}

// Window returns the sub-series with t in [lo, hi].
func (s *Series) Window(lo, hi float64) *Series {
	out := &Series{}
	for i, t := range s.T {
		if t >= lo && t <= hi {
			out.Append(t, s.X[i])
		}
	}
	return out
}

// Resample returns the series evaluated at n evenly spaced times across
// [lo, hi].
func (s *Series) Resample(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("stats: Resample needs n >= 2")
	}
	out := make([]float64, n)
	for i := range out {
		t := lo + (hi-lo)*float64(i)/float64(n-1)
		out[i] = s.At(t)
	}
	return out
}

// RMSD returns the root-mean-square deviation between two series over
// [lo, hi], comparing n evenly spaced interpolated samples. It is the
// accuracy metric used to quantify how far a partitioned CA trajectory
// deviates from the RSM reference.
func RMSD(a, b *Series, lo, hi float64, n int) float64 {
	xa := a.Resample(lo, hi, n)
	xb := b.Resample(lo, hi, n)
	sum := 0.0
	for i := range xa {
		d := xa[i] - xb[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// Autocorrelation returns the normalised autocorrelation function of xs
// for lags 0..maxLag (inclusive). A constant series yields acf[0]=1 and
// zeros elsewhere.
func Autocorrelation(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if maxLag >= n {
		maxLag = n - 1
	}
	mean := Mean(xs)
	denom := 0.0
	for _, x := range xs {
		denom += (x - mean) * (x - mean)
	}
	acf := make([]float64, maxLag+1)
	if denom == 0 {
		acf[0] = 1
		return acf
	}
	for lag := 0; lag <= maxLag; lag++ {
		num := 0.0
		for i := 0; i+lag < n; i++ {
			num += (xs[i] - mean) * (xs[i+lag] - mean)
		}
		acf[lag] = num / denom
	}
	return acf
}

// Oscillation describes a detected oscillation in a series.
type Oscillation struct {
	// Period is the dominant period in the series' time units.
	Period float64
	// Strength is the autocorrelation value at the detected period
	// (1 = perfectly periodic, ~0 = no oscillation).
	Strength float64
	// Amplitude is half the peak-to-peak spread of the series.
	Amplitude float64
}

// DetectOscillation estimates the dominant oscillation of a uniformly
// resampled series via the first prominent autocorrelation peak. The
// series is resampled at n points over its full span. ok is false when
// no positive-lag autocorrelation peak exceeds minStrength.
func DetectOscillation(s *Series, n int, minStrength float64) (Oscillation, bool) {
	if s.Len() < 4 {
		return Oscillation{}, false
	}
	lo, hi := s.T[0], s.T[s.Len()-1]
	xs := s.Resample(lo, hi, n)
	acf := Autocorrelation(xs, n/2)
	// Find the first local maximum after the initial decay below zero
	// or below 1/2, whichever comes first.
	start := 1
	for start < len(acf) && acf[start] > 0.5 {
		start++
	}
	bestLag, bestVal := 0, minStrength
	for lag := start + 1; lag < len(acf)-1; lag++ {
		if acf[lag] >= acf[lag-1] && acf[lag] >= acf[lag+1] && acf[lag] > bestVal {
			bestLag, bestVal = lag, acf[lag]
			break // first prominent peak is the fundamental period
		}
	}
	if bestLag == 0 {
		return Oscillation{}, false
	}
	dt := (hi - lo) / float64(n-1)
	loX, hiX := MinMax(xs)
	return Oscillation{
		Period:    float64(bestLag) * dt,
		Strength:  bestVal,
		Amplitude: (hiX - loX) / 2,
	}, true
}

// MomentGrid accumulates online mean/variance per cell of a fixed
// vars × points sample grid (e.g. species × time grid) — the streaming
// core of the ensemble merge. Adding a member costs O(vars·points) and
// total memory stays O(vars·points) no matter how many members stream
// through; nothing is retained but the Welford moments.
type MomentGrid struct {
	vars, points int
	members      int
	cells        []Welford
}

// NewMomentGrid returns an empty moment grid; both dimensions must be
// positive.
func NewMomentGrid(vars, points int) *MomentGrid {
	if vars < 1 || points < 1 {
		panic(fmt.Sprintf("stats: MomentGrid needs positive dimensions, got %d×%d", vars, points))
	}
	return &MomentGrid{vars: vars, points: points, cells: make([]Welford, vars*points)}
}

// AddMember accumulates one member's samples, a vars-row grid of
// points values each. It panics on a shape mismatch — a member that
// sampled a different grid must never merge silently.
func (g *MomentGrid) AddMember(values [][]float64) {
	if len(values) != g.vars {
		panic(fmt.Sprintf("stats: member has %d rows, grid has %d", len(values), g.vars))
	}
	for v, row := range values {
		if len(row) != g.points {
			panic(fmt.Sprintf("stats: member row %d has %d points, grid has %d", v, len(row), g.points))
		}
		cells := g.cells[v*g.points : (v+1)*g.points]
		for p, x := range row {
			cells[p].Add(x)
		}
	}
	g.members++
}

// Members returns the number of members accumulated.
func (g *MomentGrid) Members() int { return g.members }

// MeanStd returns the per-cell mean and sample standard deviation as
// vars rows of points values.
func (g *MomentGrid) MeanStd() (mean, std [][]float64) {
	mean = make([][]float64, g.vars)
	std = make([][]float64, g.vars)
	for v := 0; v < g.vars; v++ {
		mean[v] = make([]float64, g.points)
		std[v] = make([]float64, g.points)
		cells := g.cells[v*g.points : (v+1)*g.points]
		for p := range cells {
			mean[v][p] = cells[p].Mean()
			std[v][p] = cells[p].Std()
		}
	}
	return mean, std
}

// KSExponential runs a one-sample Kolmogorov–Smirnov test of xs against
// the exponential distribution with the given rate. It returns the KS
// statistic D and the asymptotic p-value. Used for Segers criterion 1
// (exponential waiting times).
func KSExponential(xs []float64, rate float64) (d, p float64) {
	n := len(xs)
	if n == 0 {
		return 0, 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, x := range sorted {
		cdf := 1 - math.Exp(-rate*x)
		upper := float64(i+1)/float64(n) - cdf
		lower := cdf - float64(i)/float64(n)
		if upper > d {
			d = upper
		}
		if lower > d {
			d = lower
		}
	}
	return d, ksPValue(d, n)
}

// ksPValue returns the asymptotic Kolmogorov distribution tail
// probability for statistic d with sample size n.
func ksPValue(d float64, n int) float64 {
	if d <= 0 {
		return 1
	}
	lambda := (math.Sqrt(float64(n)) + 0.12 + 0.11/math.Sqrt(float64(n))) * d
	sum := 0.0
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * lambda * lambda * float64(k) * float64(k))
		if k%2 == 1 {
			sum += term
		} else {
			sum -= term
		}
		if term < 1e-12 {
			break
		}
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// ChiSquare tests observed counts against the given expected
// probabilities (normalised internally).
func ChiSquare(counts []int, probs []float64) (chi2 float64, dof int, err error) {
	if len(counts) != len(probs) {
		return 0, 0, fmt.Errorf("stats: %d counts vs %d probabilities", len(counts), len(probs))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	psum := 0.0
	for _, p := range probs {
		psum += p
	}
	if total == 0 || psum <= 0 {
		return 0, 0, fmt.Errorf("stats: empty data")
	}
	for i, c := range counts {
		want := float64(total) * probs[i] / psum
		if want == 0 {
			if c != 0 {
				return 0, 0, fmt.Errorf("stats: observations in zero-probability bucket %d", i)
			}
			continue
		}
		d := float64(c) - want
		chi2 += d * d / want
	}
	return chi2, len(counts) - 1, nil
}
