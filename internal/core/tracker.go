package core

import (
	"parsurf/internal/fenwick"
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/partition"
	"parsurf/internal/rng"
)

// rateTracker maintains, per chunk, the summed rate of the reactions
// currently enabled at the chunk's sites — the weights of §5 selection
// way 4 ("a weighted selection according to the rates of enabled
// reactions in each chunk"). Enabledness is tracked per (type, site)
// in a packed bitset (one bit per pair instead of one byte, so the
// whole table for a 128² ZGB system is ~27 KB and stays cache-resident)
// and updated incrementally through the model's CSR dependency tables
// after every executed reaction, VSSM-style.
type rateTracker struct {
	cm      *model.Compiled
	cells   []lattice.Species
	part    *partition.Partition
	enabled []uint64 // bitset over rt*N + s
	n       int
	weights *fenwick.Tree
}

func newRateTracker(cm *model.Compiled, cells []lattice.Species, part *partition.Partition) *rateTracker {
	n := cm.Lat.N()
	t := &rateTracker{
		cm:      cm,
		cells:   cells,
		part:    part,
		enabled: make([]uint64, (cm.NumTypes()*n+63)/64),
		n:       n,
		weights: fenwick.New(part.NumChunks()),
	}
	t.scan()
	return t
}

// scan populates the bitset and chunk weights from a full lattice scan.
// The caller guarantees both are zeroed; the Add order (types
// ascending, sites ascending) matches construction, so a reset tracker
// reproduces a fresh one's float state exactly.
func (t *rateTracker) scan() {
	for rt := 0; rt < t.cm.NumTypes(); rt++ {
		for s := 0; s < t.n; s++ {
			if t.cm.Enabled(t.cells, rt, s) {
				w, m := t.bit(rt, s)
				t.enabled[w] |= m
				t.weights.Add(t.part.ChunkOf(s), t.cm.Types[rt].Rate)
			}
		}
	}
}

// reset re-derives the tracker from a fresh cell slice, reusing the
// bitset and the weight tree allocations.
func (t *rateTracker) reset(cells []lattice.Species) {
	t.cells = cells
	clear(t.enabled)
	t.weights.Reset()
	t.scan()
}

// bit locates the enabledness bit of (rt, s) in the packed bitset.
func (t *rateTracker) bit(rt, s int) (word int, mask uint64) {
	i := uint(rt*t.n + s)
	return int(i >> 6), 1 << (i & 63)
}

// refresh sets the enabledness of (rt, s) to now and adjusts the
// owning chunk's weight if it changed.
func (t *rateTracker) refresh(rt, s int, now bool) {
	w, m := t.bit(rt, s)
	was := t.enabled[w]&m != 0
	if now == was {
		return
	}
	t.enabled[w] ^= m
	delta := t.cm.Types[rt].Rate
	if !now {
		delta = -delta
	}
	t.weights.Add(t.part.ChunkOf(s), delta)
}

// afterExecute updates the weights after reaction rt fired at site s,
// walking the type's refresh plan (model.Change). It must be called
// after the configuration change.
func (t *rateTracker) afterExecute(rt, s int) {
	plan := t.cm.Plan(rt)
	for i := range plan {
		c := &plan[i]
		row := t.cm.DepRow(t.cm.ChangedSite(c, s))
		for _, d := range c.Deps {
			r, site := int(d.RT), int(row[d.Col])
			t.refresh(r, site, !d.Drop && t.cm.Enabled(t.cells, r, site))
		}
	}
	if t.weights.NeedsRebuild() {
		t.rebuild()
	}
}

// rebuild recomputes every chunk weight from the enabled bitset and the
// true rates, clearing the floating-point drift the incremental signed
// Adds accumulate over long runs. Triggered by the Fenwick tree's Add
// counter; O(T·N/64 + set bits), so amortised cost is negligible.
func (t *rateTracker) rebuild() {
	sums := t.chunkSums()
	t.weights.Rebuild(func(ci int) float64 { return sums[ci] })
}

// chunkSums returns the exact enabled rate of every chunk, summed from
// the enabled bitset.
func (t *rateTracker) chunkSums() []float64 {
	sums := make([]float64, t.part.NumChunks())
	for rt := 0; rt < t.cm.NumTypes(); rt++ {
		rate := t.cm.Types[rt].Rate
		base := rt * t.n
		for s := 0; s < t.n; s++ {
			i := uint(base + s)
			w := t.enabled[i>>6]
			if w == 0 {
				// Skip the rest of an all-clear word.
				s += 63 - int(i&63)
				continue
			}
			if w&(1<<(i&63)) != 0 {
				sums[t.part.ChunkOf(s)] += rate
			}
		}
	}
	return sums
}

// pick draws a chunk with probability proportional to its enabled rate.
// ok is false when nothing is enabled anywhere.
func (t *rateTracker) pick(src *rng.Source) (chunk int, ok bool) {
	total := t.weights.Total()
	if total <= 0 {
		return 0, false
	}
	return t.weights.Search(src.Float64() * total), true
}

// chunkWeight exposes a chunk's current enabled rate (for tests).
func (t *rateTracker) chunkWeight(ci int) float64 { return t.weights.Get(ci) }
