// Package timegrid provides the shared sampling grid every
// time-scheduled consumer in this repository derives its points from —
// the single-run sampling loop and the replica runner in internal/sim,
// and the ensemble merge. One definition means two consumers of the same
// (origin, until, every) schedule can never disagree on grid size or
// point placement, the bug class the old duplicated arithmetic
// (`int(until/every)+1` here, an accumulated `next += dt` there)
// allowed.
package timegrid

import (
	"fmt"
	"math"
)

// maxPoints bounds the grid size; finer grids are almost certainly a
// unit mistake (and their sample storage would not fit in memory).
// Typed int64 so the constant itself survives 32-bit platforms, and
// kept at 2^30 so the derived point count (at most a few past the
// ratio) can never overflow a 32-bit int.
const maxPoints = int64(1) << 30

// Grid is a sampling grid over [origin, until]: the points
// origin + i·every for every index i with origin + i·every <= until,
// plus a tail point at exactly `until` when the last on-step point
// falls short of it. Points are derived from their index — never by
// accumulating `every`, which drifts (0.1 summed eight times is
// 0.7999999999999999, not 0.8) — so two consumers of the same grid
// always agree on both the number of points and their exact float64
// values.
type Grid struct {
	origin, every, until float64
	n                    int
	tail                 bool
}

// New returns the grid the ensemble runner samples and merges on:
// points from 0 to `until` spaced `every` apart, tail included. The
// horizon must be positive, so the grid always has at least the two
// points 0 and `until`.
func New(until, every float64) (Grid, error) {
	if !(until > 0) {
		return Grid{}, fmt.Errorf("timegrid: grid needs a positive horizon, got until=%v", until)
	}
	return From(0, until, every)
}

// From returns the grid anchored at origin (a running simulation's
// current clock). An origin past the horizon yields an empty grid, not
// an error, matching "nothing left to sample".
func From(origin, until, every float64) (Grid, error) {
	if math.IsNaN(origin) || math.IsInf(origin, 0) || math.IsNaN(until) || math.IsInf(until, 0) {
		return Grid{}, fmt.Errorf("timegrid: grid bounds must be finite, got [%v, %v]", origin, until)
	}
	if !(every > 0) || math.IsInf(every, 0) {
		return Grid{}, fmt.Errorf("timegrid: grid needs a positive finite step, got every=%v", every)
	}
	g := Grid{origin: origin, every: every, until: until}
	if origin > until {
		return g, nil
	}
	if origin+every == origin {
		return Grid{}, fmt.Errorf("timegrid: step %v vanishes against origin %v (grid cannot advance)", every, origin)
	}
	ratio := (until - origin) / every
	if ratio >= float64(maxPoints) {
		return Grid{}, fmt.Errorf("timegrid: ~%.3g grid points exceed the %d-point cap", ratio, maxPoints)
	}
	// The float division only seeds k; the exact value — the largest
	// index whose derived point is still inside the horizon — comes from
	// comparing the derived points themselves, so no representation
	// error (1.0/0.1, 0.3/0.1, ...) can shift the grid size.
	k := int(ratio)
	for g.point(k) > until {
		k--
	}
	for g.point(k+1) <= until {
		k++
	}
	g.n = k + 1
	if g.point(k) < until {
		g.tail = true
		g.n++
	}
	return g, nil
}

// point is the raw index-derived point, defined for any i.
func (g Grid) point(i int) float64 { return g.origin + float64(i)*g.every }

// Len returns the number of grid points.
func (g Grid) Len() int { return g.n }

// At returns grid point i. The final point is exactly the horizon
// `until`, whether it lies on the step lattice or is the tail sample.
func (g Grid) At(i int) float64 {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("timegrid: index %d out of range [0, %d)", i, g.n))
	}
	if i == g.n-1 {
		return g.until
	}
	return g.point(i)
}

// Times returns all grid points as a fresh slice.
func (g Grid) Times() []float64 {
	out := make([]float64, g.n)
	for i := range out {
		out[i] = g.At(i)
	}
	return out
}

// Until returns the grid horizon, the final point of a non-empty grid.
func (g Grid) Until() float64 { return g.until }

// Every returns the grid step.
func (g Grid) Every() float64 { return g.every }

// Tail reports whether the final point is an off-step tail sample at
// the horizon rather than an on-step point.
func (g Grid) Tail() bool { return g.tail }
