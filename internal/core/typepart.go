package core

import (
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/partition"
	"parsurf/internal/rng"
)

// TypePartitioned is the second partitioning approach of §5 (the
// generalisation of Kortlüke's algorithm): the reaction-type set T is
// split into subsets T_j, each with an associated site partition that
// satisfies the *per-type* non-overlap rule. One step performs |T|
// sweeps; each sweep selects a subset with probability K_Tj/K, a single
// reaction type from the subset with probability k_i/K_Tj, and a chunk
// uniformly, then attempts that one type at every site of the chunk.
//
// Because only one reaction type is active per sweep, the site
// partition can be coarser (two checkerboard chunks instead of five for
// the CO-oxidation model), increasing the per-sweep concurrency.
type TypePartitioned struct {
	cm    *model.Compiled
	cfg   *lattice.Config
	cells []lattice.Species
	src   *rng.Source
	split *partition.TypeSplit

	// Workers sweeps each chunk on parallel goroutines, bit-identically
	// to the sequential sweep (per-site derived streams).
	Workers int
	// DeterministicTime advances 1/(N·K) per site visit.
	DeterministicTime bool

	subsetCum []float64
	typeCum   [][]float64

	time      float64
	steps     uint64
	visits    uint64
	successes uint64
	sweep     chunkSweep
	sweepRT   int // reaction type of the sweep in flight
}

// NewTypePartitioned builds the engine from a verified type split (call
// split.Verify beforehand; the constructor does not re-verify).
func NewTypePartitioned(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, split *partition.TypeSplit) *TypePartitioned {
	if !cfg.Lattice().SameShape(cm.Lat) {
		panic("core: configuration lattice differs from compiled lattice")
	}
	e := &TypePartitioned{cm: cm, cfg: cfg, cells: cfg.Cells(), src: src, split: split}
	e.sweep.init(e.visit)
	acc := 0.0
	for _, r := range split.SubsetRates {
		acc += r
		e.subsetCum = append(e.subsetCum, acc)
	}
	for _, subset := range split.Subsets {
		cum := make([]float64, len(subset))
		a := 0.0
		for i, rt := range subset {
			a += cm.Types[rt].Rate
			cum[i] = a
		}
		e.typeCum = append(e.typeCum, cum)
	}
	return e
}

func pickCum(cum []float64, u float64) int {
	target := u * cum[len(cum)-1]
	for i, c := range cum {
		if target < c {
			return i
		}
	}
	return len(cum) - 1
}

// Step performs |T| sweeps, visiting roughly N sites in total (for the
// two-subset checkerboard split each sweep covers N/2 sites).
//
//surflint:hotpath
func (e *TypePartitioned) Step() bool {
	for j := 0; j < e.split.NumSubsets(); j++ {
		tj := pickCum(e.subsetCum, e.src.Float64())
		ti := pickCum(e.typeCum[tj], e.src.Float64())
		e.sweepRT = e.split.Subsets[tj][ti]
		part := e.split.Partitions[tj]
		chunk := part.Chunks[e.src.Intn(part.NumChunks())]
		// Attempt the one type at every site of the chunk.
		dt, succ := e.sweep.run(e.src, chunk, e.Workers)
		e.time += dt
		e.successes += succ
		e.visits += uint64(len(chunk))
	}
	e.steps++
	return true
}

// visit is the type-partitioned per-range visit of the chunk sweep: it
// attempts the sweep's reaction type at every site.
//
//surflint:hotpath
func (e *TypePartitioned) visit(base *rng.Source, sites []int32, dts []float64) (succ uint64) {
	nk := float64(e.cm.Lat.N()) * e.cm.K
	var st rng.Source
	for i, s := range sites {
		base.SplitInto(&st, uint64(s))
		if e.cm.TryExecute(e.cells, e.sweepRT, int(s)) {
			succ++
		}
		if e.DeterministicTime {
			dts[i] = 1 / nk
		} else {
			dts[i] = st.Exp(nk)
		}
	}
	return
}

// Reset rewinds the engine over a fresh configuration (see
// registry.Engine.Reset). The type split and its cumulative-rate
// tables depend only on the model, so they are kept; the sweep stream
// counter rewinds so trajectories reproduce fresh builds exactly.
func (e *TypePartitioned) Reset(cfg *lattice.Config, src *rng.Source) {
	if !cfg.Lattice().SameShape(e.cm.Lat) {
		panic("core: Reset configuration lattice differs from compiled lattice")
	}
	e.cfg, e.cells, e.src = cfg, cfg.Cells(), src
	e.time = 0
	e.sweep.id, e.steps, e.visits, e.successes = 0, 0, 0, 0
}

// Time returns the simulated time.
func (e *TypePartitioned) Time() float64 { return e.time }

// Config returns the live configuration.
func (e *TypePartitioned) Config() *lattice.Config { return e.cfg }

// Steps returns completed steps.
func (e *TypePartitioned) Steps() uint64 { return e.steps }

// Visits returns the total site visits.
func (e *TypePartitioned) Visits() uint64 { return e.visits }

// Successes returns the executed reactions.
func (e *TypePartitioned) Successes() uint64 { return e.successes }
