package stats

import "math"

// Periodogram computes the discrete-Fourier power spectrum of the
// (mean-removed) samples at frequencies k/(n·dt), k = 1..n/2. It
// returns the power values and the corresponding frequencies. The
// direct O(n²) evaluation is fine at the series lengths the
// experiments use (≤ a few thousand samples) and keeps the package
// stdlib-only.
func Periodogram(xs []float64, dt float64) (power, freq []float64) {
	n := len(xs)
	if n < 4 || dt <= 0 {
		return nil, nil
	}
	mean := Mean(xs)
	half := n / 2
	power = make([]float64, half)
	freq = make([]float64, half)
	for k := 1; k <= half; k++ {
		var re, im float64
		w := 2 * math.Pi * float64(k) / float64(n)
		for j, x := range xs {
			angle := w * float64(j)
			re += (x - mean) * math.Cos(angle)
			im += (x - mean) * math.Sin(angle)
		}
		power[k-1] = (re*re + im*im) / float64(n)
		freq[k-1] = float64(k) / (float64(n) * dt)
	}
	return power, freq
}

// DominantPeriod returns the period of the strongest periodogram peak
// of the series (resampled to n points) and that peak's share of the
// total spectral power. ok is false for series too short to analyse.
func DominantPeriod(s *Series, n int) (period, share float64, ok bool) {
	if s.Len() < 8 {
		return 0, 0, false
	}
	lo, hi := s.T[0], s.T[s.Len()-1]
	if hi <= lo {
		return 0, 0, false
	}
	dt := (hi - lo) / float64(n-1)
	xs := s.Resample(lo, hi, n)
	power, freq := Periodogram(xs, dt)
	if len(power) == 0 {
		return 0, 0, false
	}
	total, best, bestIdx := 0.0, 0.0, -1
	for i, p := range power {
		total += p
		if p > best {
			best, bestIdx = p, i
		}
	}
	if total == 0 || bestIdx < 0 {
		return 0, 0, false
	}
	return 1 / freq[bestIdx], best / total, true
}
