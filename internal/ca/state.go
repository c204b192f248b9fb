// Engine checkpoint payloads (registry.Engine.SaveState/LoadState) for
// the CA engines.

package ca

import (
	"io"

	"parsurf/internal/persist"
)

// SaveState writes the NDCA clock and counters; the raster sweep
// order carries no state across steps.
func (a *NDCA) SaveState(w io.Writer) error {
	e := persist.NewWriter(w)
	e.F64(a.time)
	e.U64(a.steps)
	e.U64(a.trials)
	e.U64(a.successes)
	return e.Err()
}

// LoadState restores a payload written by SaveState.
func (a *NDCA) LoadState(rd io.Reader) error {
	d := persist.NewReader(rd)
	a.time = d.F64()
	a.steps = d.U64()
	a.trials = d.U64()
	a.successes = d.U64()
	return d.Err()
}

// SaveState writes the synchronous NDCA clock and counters; claim
// tables, proposals and winner buffers are rebuilt from scratch every
// Step.
func (a *SyncNDCA) SaveState(w io.Writer) error {
	e := persist.NewWriter(w)
	e.F64(a.time)
	e.U64(a.steps)
	e.U64(a.proposed)
	e.U64(a.conflicts)
	e.U64(a.executed)
	return e.Err()
}

// LoadState restores a payload written by SaveState.
func (a *SyncNDCA) LoadState(rd io.Reader) error {
	d := persist.NewReader(rd)
	a.time = d.F64()
	a.steps = d.U64()
	a.proposed = d.U64()
	a.conflicts = d.U64()
	a.executed = d.U64()
	return d.Err()
}

// SaveState writes the BCA clock, tiling phase and counters; the
// precomputed shifted tilings are a pure function of geometry and are
// rebuilt by construction.
func (b *BCA) SaveState(w io.Writer) error {
	e := persist.NewWriter(w)
	e.F64(b.time)
	e.U64(uint64(b.phase))
	e.U64(b.steps)
	e.U64(b.trials)
	e.U64(b.successes)
	e.U64(b.rejected)
	return e.Err()
}

// LoadState restores a payload written by SaveState.
func (b *BCA) LoadState(rd io.Reader) error {
	d := persist.NewReader(rd)
	simTime := d.F64()
	phase := d.U64()
	steps := d.U64()
	trials := d.U64()
	successes := d.U64()
	rejected := d.U64()
	if d.Err() == nil && phase >= uint64(len(b.tilings)) {
		d.Failf("ca: bca payload phase %d with %d tilings", phase, len(b.tilings))
	}
	if err := d.Err(); err != nil {
		return err
	}
	b.time = simTime
	b.phase = int(phase)
	b.steps, b.trials, b.successes, b.rejected = steps, trials, successes, rejected
	return nil
}
