package core

import (
	"parsurf/internal/parallel"
	"parsurf/internal/rng"
)

// chunkSweep is the one chunk sweep of the partitioned engines (PNDCA
// and TypePartitioned): it trials every site of one chunk, possibly on
// parallel workers. Every site draws from its own stream, derived from
// the per-sweep base stream, and records its clock increment into a
// per-site slot; the slots are then summed in chunk order however the
// sites were segmented across workers. Configurations AND the clock
// are therefore bit-identical for every worker count. The engine
// supplies only the per-range visit.
type chunkSweep struct {
	// visit trials sites, deriving each site's stream from base, writes
	// each site's clock increment into the matching dts slot and
	// returns the executed-reaction count. The non-overlap rule makes
	// concurrent visits over disjoint ranges race-free.
	visit func(base *rng.Source, sites []int32, dts []float64) uint64

	fan  *parallel.Fanout
	id   uint64     // per-sweep stream counter
	base rng.Source // per-sweep base stream

	// The sweep in flight: the chunk, its per-site clock slots and its
	// per-worker success counts.
	chunk []int32
	dts   []float64
	succ  []uint64
}

func (c *chunkSweep) init(visit func(base *rng.Source, sites []int32, dts []float64) uint64) {
	c.visit = visit
	c.fan = parallel.NewFanout(c.segment)
}

// run sweeps chunk on up to workers goroutines under the next sweep
// stream split off src. It returns the chunk-ordered clock increment
// and the executed-reaction count.
//
//surflint:hotpath
func (c *chunkSweep) run(src *rng.Source, chunk []int32, workers int) (dt float64, succ uint64) {
	c.id++
	src.SplitInto(&c.base, c.id)
	workers = min(max(workers, 1), len(chunk))
	c.reserve(len(chunk), workers)
	c.chunk, c.dts, c.succ = chunk, c.dts[:len(chunk)], c.succ[:workers]
	c.fan.Run(workers)
	for _, s := range c.succ {
		succ += s
	}
	for _, d := range c.dts {
		dt += d
	}
	return dt, succ
}

// segment visits worker w's fixed share [w·len/W, (w+1)·len/W) of the
// chunk in flight.
//
//surflint:hotpath
func (c *chunkSweep) segment(w int) {
	lo := w * len(c.chunk) / len(c.succ)
	hi := (w + 1) * len(c.chunk) / len(c.succ)
	c.succ[w] = c.visit(&c.base, c.chunk[lo:hi], c.dts[lo:hi])
}

// reserve grows the slot buffers; only the first, largest sweeps of a
// run allocate.
func (c *chunkSweep) reserve(sites, workers int) {
	if cap(c.dts) < sites {
		c.dts = make([]float64, sites)
	}
	if cap(c.succ) < workers {
		c.succ = make([]uint64, workers)
	}
}
