package dmc

import (
	"parsurf/internal/fenwick"
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
)

// VSSM is the Variable Step Size Method (Gillespie's direct method) with
// incremental bookkeeping of the enabled-reaction lists: every Step
// executes exactly one reaction, chosen with probability proportional to
// its rate among all *enabled* reactions, and advances the time by an
// exponential with the total enabled rate. Unlike RSM it never wastes
// trials on disabled reactions, at the cost of maintaining the enabled
// sets after every execution.
type VSSM struct {
	cm    *model.Compiled
	cfg   *lattice.Config
	cells []lattice.Species
	src   *rng.Source
	time  float64

	// typeRates is a Fenwick tree over reaction types; slot i holds
	// k_i · |enabled_i| so Search implements the two-level selection
	// (type by aggregate rate, then a uniform enabled site).
	typeRates *fenwick.Tree
	// enabled[rt] lists the sites where rt is enabled; pos[rt][s] is
	// index+1 of s in enabled[rt] (0 = absent).
	enabled [][]int32
	pos     [][]int32

	events uint64
}

// NewVSSM builds the engine and initialises the enabled sets with a full
// lattice scan (O(N · Σ|pattern|)).
func NewVSSM(cm *model.Compiled, cfg *lattice.Config, src *rng.Source) *VSSM {
	if !cfg.Lattice().SameShape(cm.Lat) {
		panic("dmc: configuration lattice differs from compiled lattice")
	}
	v := &VSSM{
		cm:        cm,
		cfg:       cfg,
		cells:     cfg.Cells(),
		src:       src,
		typeRates: fenwick.New(cm.NumTypes()),
		enabled:   make([][]int32, cm.NumTypes()),
		pos:       make([][]int32, cm.NumTypes()),
	}
	n := cm.Lat.N()
	for rt := range v.enabled {
		v.pos[rt] = make([]int32, n)
	}
	v.scanEnabled()
	return v
}

// scanEnabled populates the enabled sets and the type-rate tree from a
// full lattice scan. The caller guarantees the sets and the tree are
// empty; the insert order (types ascending, sites ascending) performs
// the same Fenwick additions as construction, so Reset reproduces the
// constructor's float state exactly.
func (v *VSSM) scanEnabled() {
	n := v.cm.Lat.N()
	for rt := 0; rt < v.cm.NumTypes(); rt++ {
		for s := 0; s < n; s++ {
			if v.cm.Enabled(v.cells, rt, s) {
				v.insert(rt, s)
			}
		}
	}
}

// Reset rewinds the engine over a fresh configuration (see
// registry.Engine.Reset): enabled lists are truncated in place, the
// position index and rate tree are zeroed, and the initial scan re-runs
// — no per-type slice or tree is reallocated.
func (v *VSSM) Reset(cfg *lattice.Config, src *rng.Source) {
	if !cfg.Lattice().SameShape(v.cm.Lat) {
		panic("dmc: Reset configuration lattice differs from compiled lattice")
	}
	v.cfg, v.cells, v.src = cfg, cfg.Cells(), src
	v.time = 0
	v.events = 0
	v.typeRates.Reset()
	for rt := range v.enabled {
		v.enabled[rt] = v.enabled[rt][:0]
		clear(v.pos[rt])
	}
	v.scanEnabled()
}

// insert appends site s to rt's enabled list and adds its rate. The
// caller guarantees (rt, s) is currently absent.
func (v *VSSM) insert(rt, s int) {
	v.enabled[rt] = append(v.enabled[rt], int32(s))
	v.pos[rt][s] = int32(len(v.enabled[rt]))
	v.typeRates.Add(rt, v.cm.Types[rt].Rate)
}

// refresh re-evaluates enabledness of (rt, s) and fixes the sets. It is
// the body of the post-execution dependency scan for the plan columns
// that may have become enabled: one position lookup decides both
// directions, and the common no-change case returns without touching
// the enabled lists or the rate tree.
func (v *VSSM) refresh(rt, s int) {
	now := v.cm.Enabled(v.cells, rt, s)
	if now == (v.pos[rt][s] != 0) {
		return
	}
	if now {
		v.insert(rt, s)
		return
	}
	v.remove(rt, s)
}

// remove takes site s out of rt's enabled list by swapping the last
// entry into its slot, and subtracts its rate. A no-op when (rt, s) is
// absent.
func (v *VSSM) remove(rt, s int) {
	p := v.pos[rt][s]
	if p == 0 {
		return
	}
	list := v.enabled[rt]
	last := len(list) - 1
	moved := list[last]
	list[p-1] = moved
	v.pos[rt][moved] = p
	v.enabled[rt] = list[:last]
	v.pos[rt][s] = 0
	v.typeRates.Add(rt, -v.cm.Types[rt].Rate)
}

// TotalRate returns Σ k_i·|enabled_i|, the aggregate propensity.
func (v *VSSM) TotalRate() float64 { return v.typeRates.Total() }

// EnabledCount returns the number of sites where rt is enabled.
func (v *VSSM) EnabledCount(rt int) int { return len(v.enabled[rt]) }

// resync rebuilds the type-rate tree from the exact enabled counts.
// Long runs accumulate floating-point residue in the Fenwick nodes
// (adds and removes of the same rate interleave with other types);
// resync clears it. It runs both reactively (Search landed on an empty
// type) and proactively (the tree's Add counter trips NeedsRebuild).
func (v *VSSM) resync() { v.typeRates.Rebuild(v.typeRate) }

// typeRate is the exact weight of reaction rt in the type-rate tree,
// k_rt·|enabled_rt|.
func (v *VSSM) typeRate(rt int) float64 {
	return v.cm.Types[rt].Rate * float64(len(v.enabled[rt]))
}

// Step executes one reaction event. It reports false from an absorbing
// state (no enabled reactions), leaving time unchanged.
//
//surflint:hotpath
func (v *VSSM) Step() bool {
	total := v.typeRates.Total()
	if total <= 0 {
		return false
	}
	rt := v.typeRates.Search(v.src.Float64() * total)
	if len(v.enabled[rt]) == 0 {
		// Floating-point residue let Search land on an empty type.
		// Rebuild the tree and redraw.
		v.resync()
		total = v.typeRates.Total()
		if total <= 0 {
			return false
		}
		rt = v.typeRates.Search(v.src.Float64() * total)
	}
	v.time += v.src.Exp(total)
	list := v.enabled[rt]
	s := int(list[v.src.Intn(len(list))])

	v.cm.Execute(v.cells, rt, s)
	plan := v.cm.Plan(rt)
	for i := range plan {
		c := &plan[i]
		row := v.cm.DepRow(v.cm.ChangedSite(c, s))
		for _, d := range c.Deps {
			if d.Drop {
				v.remove(int(d.RT), int(row[d.Col]))
			} else {
				v.refresh(int(d.RT), int(row[d.Col]))
			}
		}
	}
	if v.typeRates.NeedsRebuild() {
		v.resync()
	}
	v.events++
	return true
}

// Time returns the simulated time.
func (v *VSSM) Time() float64 { return v.time }

// Config returns the live configuration.
func (v *VSSM) Config() *lattice.Config { return v.cfg }

// Events returns the number of executed reactions.
func (v *VSSM) Events() uint64 { return v.events }

// CheckConsistency verifies the incremental enabled sets against a full
// rescan; used by tests and available for debugging long runs. It
// returns the first discrepancy found, or ok.
func (v *VSSM) CheckConsistency() (rt, s int, ok bool) {
	n := v.cm.Lat.N()
	for r := 0; r < v.cm.NumTypes(); r++ {
		for site := 0; site < n; site++ {
			want := v.cm.Enabled(v.cells, r, site)
			got := v.pos[r][site] != 0
			if want != got {
				return r, site, false
			}
		}
	}
	return 0, 0, true
}
