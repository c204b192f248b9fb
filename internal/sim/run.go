package sim

import (
	"context"

	"parsurf/internal/dmc"
	"parsurf/internal/lattice"
	"parsurf/internal/timegrid"
)

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(t float64, cfg *lattice.Config)

// Observe implements Observer.
func (f ObserverFunc) Observe(t float64, cfg *lattice.Config) { f(t, cfg) }

// RunContext advances s until its clock reaches tEnd, observing the
// live configuration on the grid timegrid.From(s.Time(), tEnd, dt)
// through SampleGrid. dt <= 0 disables sampling. Cancellation takes
// effect within one Step call (see runTo); the context error is then
// returned with the progress so far.
func RunContext(ctx context.Context, s dmc.Simulator, dt, tEnd float64, observers ...Observer) (steps, samples int, err error) {
	if dt <= 0 {
		steps, err = runTo(ctx, s, tEnd)
		return steps, 0, err
	}
	grid, err := timegrid.From(s.Time(), tEnd, dt)
	if err != nil {
		return 0, 0, err
	}
	return SampleGrid(ctx, s, grid, 0, observers...)
}

// SampleGrid is the single-run sampling loop: it advances s to grid
// points k0, k0+1, … and hands the clock and the live configuration to
// every observer at each. Points before k0 are neither run to nor
// observed, so a session resumed from a checkpoint continues the grid
// its interrupted run sampled. Two rules keep the series free of
// duplicates:
//
//   - when the clock has already passed an off-step tail point (the
//     last on-step point overshot the horizon), the tail is skipped;
//   - an absorbing state before a grid point is observed once, and the
//     run stops there.
//
// The context is checked before every engine step.
func SampleGrid(ctx context.Context, s dmc.Simulator, grid timegrid.Grid, k0 int, observers ...Observer) (steps, samples int, err error) {
	for k := k0; k < grid.Len(); k++ {
		t := grid.At(k)
		if k == grid.Len()-1 && grid.Tail() && s.Time() >= t {
			return steps, samples, nil
		}
		n, err := runTo(ctx, s, t)
		steps += n
		if err != nil {
			return steps, samples, err
		}
		now, cfg := s.Time(), s.Config()
		for _, obs := range observers {
			obs.Observe(now, cfg)
		}
		samples++
		if now < t {
			return steps, samples, nil
		}
	}
	return steps, samples, nil
}

// runTo advances s until its clock reaches t, checking ctx before every
// step. An absorbing state ends it early, leaving the clock short of t.
// ctx.Done() is read once and polled with a non-blocking receive, which
// takes no lock while the run is live; ctx.Err() is read only after the
// channel has closed.
//
//surflint:hotpath
func runTo(ctx context.Context, s dmc.Simulator, t float64) (steps int, err error) {
	done := ctx.Done()
	for s.Time() < t {
		select {
		case <-done:
			return steps, ctx.Err()
		default:
		}
		if !s.Step() {
			break
		}
		steps++
	}
	return steps, nil
}

// RunGridFrom advances s through the sampling grid from index k0,
// invoking observe(k, cfg) with the live configuration at every grid
// index k ≥ k0. This is the ensemble replica runner: observations are
// keyed by grid index, so what a replica samples is exactly what the
// merge aggregates — the two can never disagree on grid size or
// placement. Points before k0 are neither run to nor observed: a fresh
// replica starts at 0, and one restored from a checkpoint taken after
// grid point k0-1 continues with the remaining points, its step count
// covering only the continued stretch. Each point is reached through
// runTo, so cancellation takes effect within one Step call. When the
// engine reaches an absorbing state before grid point k, the frozen
// configuration is observed for k and every remaining point: an
// absorbed system no longer changes, so those samples are exact
// values, not interpolations, and the merge sees a full grid.
//
//surflint:hotpath
func RunGridFrom(ctx context.Context, s dmc.Simulator, grid timegrid.Grid, k0 int, observe func(k int, cfg *lattice.Config)) (steps int, err error) {
	for k := k0; k < grid.Len(); k++ {
		t := grid.At(k)
		n, err := runTo(ctx, s, t)
		steps += n
		if err != nil {
			return steps, err
		}
		observe(k, s.Config())
		if s.Time() < t {
			for k++; k < grid.Len(); k++ {
				observe(k, s.Config())
			}
			return steps, nil
		}
	}
	return steps, nil
}

// StepContext advances s by n Step calls (or until an absorbing state),
// polling the context between steps as runTo does.
//
//surflint:hotpath
func StepContext(ctx context.Context, s dmc.Simulator, n int) (steps int, err error) {
	done := ctx.Done()
	for ; steps < n; steps++ {
		select {
		case <-done:
			return steps, ctx.Err()
		default:
		}
		if !s.Step() {
			break
		}
	}
	return steps, nil
}
