// Engine checkpoint payload (registry.Engine.SaveState/LoadState) for
// the classic ZGB model.

package ziff

import (
	"io"

	"parsurf/internal/persist"
)

// SaveState writes the ZGB counters. The clock is trials/N, and the
// vacancy bitset and count are pure functions of the cells, re-derived
// by Reset before LoadState runs.
func (z *ZGB) SaveState(w io.Writer) error {
	e := persist.NewWriter(w)
	e.U64(z.steps)
	e.U64(z.trials)
	e.U64(z.co2)
	return e.Err()
}

// LoadState restores a payload written by SaveState.
func (z *ZGB) LoadState(rd io.Reader) error {
	d := persist.NewReader(rd)
	z.steps = d.U64()
	z.trials = d.U64()
	z.co2 = d.U64()
	return d.Err()
}
