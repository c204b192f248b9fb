// Package core implements the paper's contribution (§5): Cellular
// Automaton simulation with partitions.
//
//   - PNDCA: per step, every chunk of the partition is swept and every
//     site of the chunk performs one rate-weighted trial. Because the
//     partition satisfies the non-overlap rule, all sites of one chunk
//     update independently — the package executes them on parallel
//     goroutines with bit-identical results to the sequential sweep.
//   - L-PNDCA: the generalised algorithm where chunks are selected
//     repeatedly (four selection strategies) and L random trials are
//     spent inside the selected chunk, until N trials complete a step.
//     For m=1 or m=N it reduces exactly to the Random Selection Method.
//   - TypePartitioned: the Ω×T partitioning (the generalisation of
//     Kortlüke's algorithm), where the reaction-type set is split into
//     subsets and a coarser two-chunk partition is swept one reaction
//     type at a time.
package core

import (
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/partition"
	"parsurf/internal/rng"
)

// PNDCA is the Partitioned Non-Deterministic Cellular Automaton: per
// step every chunk is swept once, in index order (§5 selection strategy
// 1), and within a chunk every site performs exactly one trial (reaction
// type chosen with probability k_i/K, executed if enabled). L-PNDCA
// covers the other chunk-selection strategies.
type PNDCA struct {
	cm    *model.Compiled
	cfg   *lattice.Config
	cells []lattice.Species
	src   *rng.Source
	part  *partition.Partition

	// Workers is the number of goroutines sweeping each chunk. The
	// non-overlap rule makes in-chunk updates commute, and per-site
	// random streams make the result bit-identical for every worker
	// count. Zero or one means sequential.
	Workers int
	// DeterministicTime advances 1/(N·K) per trial instead of Exp(N·K).
	DeterministicTime bool

	time      float64
	steps     uint64
	successes uint64
	sweep     chunkSweep
}

// NewPNDCA builds the engine. The partition must satisfy the all-types
// non-overlap rule for the model (verify with partition.VerifyNonOverlap;
// the constructor does not re-verify, allowing deliberately invalid
// partitions in experiments).
func NewPNDCA(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, part *partition.Partition) *PNDCA {
	if !cfg.Lattice().SameShape(cm.Lat) {
		panic("core: configuration lattice differs from compiled lattice")
	}
	if !part.Lat.SameShape(cm.Lat) {
		panic("core: partition lattice differs from compiled lattice")
	}
	p := &PNDCA{cm: cm, cfg: cfg, cells: cfg.Cells(), src: src, part: part}
	p.sweep.init(p.visit)
	return p
}

// Step performs one PNDCA step: every chunk swept once, every site of
// the lattice trialled once (N trials = one MC step).
//
//surflint:hotpath
func (p *PNDCA) Step() bool {
	for _, chunk := range p.part.Chunks {
		dt, succ := p.sweep.run(p.src, chunk, p.Workers)
		p.time += dt
		p.successes += succ
	}
	p.steps++
	return true
}

// visit is PNDCA's per-range visit of the chunk sweep: every site
// draws a reaction type with probability k_i/K and attempts it.
//
//surflint:hotpath
func (p *PNDCA) visit(base *rng.Source, sites []int32, dts []float64) (succ uint64) {
	nk := float64(p.cm.Lat.N()) * p.cm.K
	var st rng.Source
	for i, s := range sites {
		base.SplitInto(&st, uint64(s))
		rt := p.cm.PickType(st.Float64())
		if p.cm.TryExecute(p.cells, rt, int(s)) {
			succ++
		}
		if p.DeterministicTime {
			dts[i] = 1 / nk
		} else {
			dts[i] = st.Exp(nk)
		}
	}
	return
}

// Reset rewinds the engine over a fresh configuration (see
// registry.Engine.Reset). The partition is kept; the sweep stream
// counter rewinds so replica trajectories reproduce fresh builds
// exactly.
func (p *PNDCA) Reset(cfg *lattice.Config, src *rng.Source) {
	if !cfg.Lattice().SameShape(p.cm.Lat) {
		panic("core: Reset configuration lattice differs from compiled lattice")
	}
	p.cfg, p.cells, p.src = cfg, cfg.Cells(), src
	p.time = 0
	p.sweep.id, p.steps, p.successes = 0, 0, 0
}

// Time returns the simulated time.
func (p *PNDCA) Time() float64 { return p.time }

// Config returns the live configuration.
func (p *PNDCA) Config() *lattice.Config { return p.cfg }

// Steps returns the number of completed steps.
func (p *PNDCA) Steps() uint64 { return p.steps }

// Successes returns the number of executed reactions.
func (p *PNDCA) Successes() uint64 { return p.successes }

// Partition returns the partition the engine sweeps.
func (p *PNDCA) Partition() *partition.Partition { return p.part }
