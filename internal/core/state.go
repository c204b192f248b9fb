// Engine checkpoint payloads (registry.Engine.SaveState/LoadState) for
// the partitioned engines.

package core

import (
	"io"

	"parsurf/internal/persist"
)

// SaveState writes the PNDCA clock, sweep stream counter and counters;
// the chunks are swept in the partition's fixed order.
func (p *PNDCA) SaveState(w io.Writer) error {
	e := persist.NewWriter(w)
	e.F64(p.time)
	e.U64(p.sweep.id)
	e.U64(p.steps)
	e.U64(p.successes)
	return e.Err()
}

// LoadState restores a payload written by SaveState.
func (p *PNDCA) LoadState(rd io.Reader) error {
	d := persist.NewReader(rd)
	p.time = d.F64()
	p.sweep.id = d.U64()
	p.steps = d.U64()
	p.successes = d.U64()
	return d.Err()
}

// SaveState writes the L-PNDCA clock, counters, the chunk cursor and
// permutation (both persist across steps under the AllInOrder and
// AllRandomOrder strategies), and — when the RateWeighted tracker has
// been built — the raw Fenwick chunk weights. The weights accumulate
// floating-point residue from incremental signed adds, so a fresh scan
// would change subsequent weighted draws; the nodes must survive
// verbatim.
func (e *LPNDCA) SaveState(w io.Writer) error {
	enc := persist.NewWriter(w)
	enc.F64(e.time)
	enc.U64(e.steps)
	enc.U64(e.trials)
	enc.U64(e.successes)
	enc.U64(uint64(e.cursor))
	enc.U32(uint32(len(e.perm)))
	for _, ci := range e.perm {
		enc.U32(uint32(ci))
	}
	if e.tracker == nil {
		enc.U32(0)
	} else {
		enc.U32(1)
		nodes, adds := e.tracker.weights.State(nil)
		enc.U64(adds)
		enc.U32(uint32(len(nodes)))
		for _, node := range nodes {
			enc.F64(node)
		}
	}
	return enc.Err()
}

// LoadState restores a payload written by SaveState. When the payload
// carries tracker weights and the engine has no tracker yet (Reset
// leaves a lazily-built tracker nil on a fresh engine), the tracker is
// built first — its enabled bitset is a pure function of the already
// restored cells — and its drifted weights are then overwritten; they
// must match the chunk sums of that bitset up to drift.
func (e *LPNDCA) LoadState(rd io.Reader) error {
	d := persist.NewReader(rd)
	simTime := d.F64()
	steps := d.U64()
	trials := d.U64()
	successes := d.U64()
	cursor := d.U64()
	m := d.U32()
	if d.Err() == nil && int(m) != len(e.perm) {
		d.Failf("core: lpndca payload permutes %d chunks, partition has %d", m, len(e.perm))
	}
	if d.Err() == nil && cursor >= uint64(max(int(m), 1)) {
		d.Failf("core: lpndca payload cursor %d with %d chunks", cursor, m)
	}
	// Sized by the partition, not the claims, so a corrupt count cannot
	// force a huge allocation.
	perm := make([]int, 0, len(e.perm))
	for i := 0; i < int(m) && d.Err() == nil; i++ {
		ci := d.U32()
		if d.Err() == nil && int(ci) >= len(e.perm) {
			d.Failf("core: lpndca payload chunk %d outside partition", ci)
			break
		}
		perm = append(perm, int(ci))
	}
	hasTracker := d.U32()
	var nodes []float64
	var adds uint64
	if d.Err() == nil && hasTracker > 1 {
		d.Failf("core: lpndca payload tracker flag %d", hasTracker)
	}
	if hasTracker == 1 && d.Err() == nil {
		adds = d.U64()
		nn := d.U32()
		nodes = make([]float64, 0, len(e.perm)+1)
		for i := 0; i < int(nn) && d.Err() == nil; i++ {
			nodes = append(nodes, d.F64())
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if hasTracker == 1 {
		if e.tracker == nil {
			e.tracker = newRateTracker(e.cm, e.cells, e.part)
		}
		sums, bound := e.tracker.chunkSums(), float64(len(e.cells))*e.cm.K
		if err := e.tracker.weights.Restore(nodes, adds, func(ci int) float64 { return sums[ci] }, bound); err != nil {
			return err
		}
	}
	copy(e.perm, perm)
	e.cursor = int(cursor)
	e.time = simTime
	e.steps, e.trials, e.successes = steps, trials, successes
	return nil
}

// SaveState writes the type-partitioned clock, sweep stream counter and
// counters; the cumulative-rate tables are pure functions of the model.
func (e *TypePartitioned) SaveState(w io.Writer) error {
	enc := persist.NewWriter(w)
	enc.F64(e.time)
	enc.U64(e.sweep.id)
	enc.U64(e.steps)
	enc.U64(e.visits)
	enc.U64(e.successes)
	return enc.Err()
}

// LoadState restores a payload written by SaveState.
func (e *TypePartitioned) LoadState(rd io.Reader) error {
	d := persist.NewReader(rd)
	e.time = d.F64()
	e.sweep.id = d.U64()
	e.steps = d.U64()
	e.visits = d.U64()
	e.successes = d.U64()
	return d.Err()
}
