package ca

import (
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
)

// SyncNDCA is the fully synchronous Non-Deterministic CA: every site
// proposes a rate-weighted reaction based on the state at time t−1, all
// proposals are checked against that same state, and conflicting
// proposals (the situation of Fig. 2) are resolved by a lottery drawn
// each step: proposals claim their neighbourhoods in a random order,
// the first claimant of a site wins, and every later proposal that
// overlaps a claimed site is dropped. The survivors are applied
// simultaneously.
//
// This engine exists to *measure* the conflict problem the paper solves
// with partitions: it counts proposals, conflicts and executed
// reactions, and its kinetics deviate from the Master Equation in
// exactly the way §4 describes.
type SyncNDCA struct {
	cm    *model.Compiled
	cfg   *lattice.Config
	cells []lattice.Species
	src   *rng.Source
	time  float64

	// DeterministicTime uses 1/K per step (N trials of mean 1/(N·K)).
	DeterministicTime bool

	// claim[s] is the proposal index+1 that currently holds site s.
	claim     []int32
	proposals []proposal
	order     []int
	// scratch buffers of one Step, reused across steps so the
	// steady-state update allocates nothing.
	nbScratch []int
	winners   []int32
	// swap is the Shuffle callback over order, built once: a closure
	// literal in Step would escape and allocate every call.
	swap func(i, j int)

	steps     uint64
	proposed  uint64
	conflicts uint64
	executed  uint64
}

type proposal struct {
	site int
	rt   int
}

// NewSyncNDCA returns a synchronous NDCA engine.
func NewSyncNDCA(cm *model.Compiled, cfg *lattice.Config, src *rng.Source) *SyncNDCA {
	if !cfg.Lattice().SameShape(cm.Lat) {
		panic("ca: configuration lattice differs from compiled lattice")
	}
	n := cm.Lat.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	a := &SyncNDCA{
		cm: cm, cfg: cfg, cells: cfg.Cells(), src: src,
		claim: make([]int32, n),
		order: order,
	}
	a.swap = func(i, j int) { a.order[i], a.order[j] = a.order[j], a.order[i] }
	return a
}

// Reset rewinds the engine over a fresh configuration (see
// registry.Engine.Reset). The claim table, proposal and winner buffers
// are cleared in place; Step re-derives them from scratch every update
// anyway.
func (a *SyncNDCA) Reset(cfg *lattice.Config, src *rng.Source) {
	if !cfg.Lattice().SameShape(a.cm.Lat) {
		panic("ca: Reset configuration lattice differs from compiled lattice")
	}
	a.cfg, a.cells, a.src = cfg, cfg.Cells(), src
	a.time = 0
	a.steps, a.proposed, a.conflicts, a.executed = 0, 0, 0, 0
	clear(a.claim)
	a.proposals = a.proposals[:0]
}

// Step performs one synchronous update: propose at all sites from the
// frozen state, resolve conflicts, apply survivors simultaneously.
//
//surflint:hotpath
func (a *SyncNDCA) Step() bool {
	n := a.cm.Lat.N()
	a.proposals = a.proposals[:0]
	for i := range a.claim {
		a.claim[i] = 0
	}

	// Phase 1: every site proposes a reaction enabled in the *current*
	// (frozen) state.
	for s := 0; s < n; s++ {
		rt := a.cm.PickType(a.src.Float64())
		if a.cm.Enabled(a.cells, rt, s) {
			a.proposals = append(a.proposals, proposal{site: s, rt: rt})
		}
	}
	a.proposed += uint64(len(a.proposals))

	// Phase 2: conflict resolution. Proposals claim the full
	// neighbourhood of their pattern in a random order; a proposal
	// finding any of its sites already claimed is in conflict and
	// dropped (first claimant wins).
	idx := a.order[:len(a.proposals)]
	for i := range idx {
		idx[i] = i
	}
	a.src.Shuffle(len(idx), a.swap)

	winners := a.winners[:0]
	for _, pi := range idx {
		p := a.proposals[pi]
		scratch := a.cm.NbSites(a.nbScratch[:0], p.rt, p.site)
		a.nbScratch = scratch
		conflict := false
		for _, site := range scratch {
			if a.claim[site] != 0 {
				conflict = true
				break
			}
		}
		if conflict {
			a.conflicts++
			continue
		}
		for _, site := range scratch {
			a.claim[site] = int32(pi) + 1
		}
		winners = append(winners, int32(pi))
	}
	a.winners = winners

	// Phase 3: apply the surviving proposals simultaneously. Winners
	// have pairwise disjoint neighbourhoods, so application order is
	// irrelevant — this is the property partitions guarantee up front.
	for _, pi := range winners {
		p := a.proposals[pi]
		a.cm.Execute(a.cells, p.rt, p.site)
		a.executed++
	}

	a.steps++
	if a.DeterministicTime {
		a.time += 1 / a.cm.K
	} else {
		a.time += a.src.Exp(a.cm.K)
	}
	return true
}

// Time returns the simulated time (one synchronous step corresponds to
// one MC step of N trials).
func (a *SyncNDCA) Time() float64 { return a.time }

// Config returns the live configuration.
func (a *SyncNDCA) Config() *lattice.Config { return a.cfg }

// Steps returns the number of synchronous steps.
func (a *SyncNDCA) Steps() uint64 { return a.steps }

// Proposed returns the number of enabled proposals generated.
func (a *SyncNDCA) Proposed() uint64 { return a.proposed }

// Conflicts returns the number of proposals rejected by conflicts.
func (a *SyncNDCA) Conflicts() uint64 { return a.conflicts }

// Executed returns the number of reactions applied.
func (a *SyncNDCA) Executed() uint64 { return a.executed }
