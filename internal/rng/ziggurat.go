package rng

import "math"

// The exponential clock is the 256-layer ziggurat of Marsaglia and
// Tsang (J. Stat. Softw. 5(8), 2000) under the density e^(-x): layer 0
// is the base strip [0, zigR) plus the tail beyond it, layers 1..255
// are rectangles of equal area stacked above it, narrowing towards the
// top. Every variate consumes exactly one output of the caller's
// stream, so FillExp and checkpoints see the same draw count as a
// one-uniform inversion sampler would.
//
// The word u splits into a layer index i (its low 8 bits) and a 53-bit
// abscissa j (its top 53 bits). When j lies below zigK[i] the point is
// under the density and x = j·zigW[i] is returned at once; that covers
// about 97.8% of words. Otherwise the wedge test and the tail draw
// what they need from a child Source seeded from u itself, never from
// the caller's stream, so the slow path cannot change how many outputs
// a variate consumes.

// zigR is the right edge of the base strip: beyond it lies the tail,
// sampled as zigR + Exp(1).
const zigR = 7.69711747013104972

// expFast is the ziggurat's fast path: x = j·zigW[i] for the word u,
// and whether it stands (ok) or u must go through expSlow. It is kept
// small enough to inline into Source.Exp and FillExp.
//
//surflint:hotpath
func expFast(u uint64) (x float64, ok bool) {
	i := uint8(u)
	j := u >> 11
	return float64(j) * zigW[i], j < zigK[i]
}

// expSlow maps a word that missed the fast path to its Exp(1) variate:
// the tail of layer 0, the wedge test of layers 1..255, and every retry,
// all drawn from a child stream seeded from u.
func expSlow(u uint64) float64 {
	var c Source
	c.Seed(u)
	for {
		i := uint8(u)
		j := u >> 11
		x := float64(j) * zigW[i]
		switch {
		case j < zigK[i]:
			return x
		case i == 0:
			return zigR - math.Log(1-c.Float64())
		case zigF[i]+c.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-x):
			return x
		}
		u = c.Uint64()
	}
}
