package dmc

import (
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/partition"
	"parsurf/internal/registry"
	"parsurf/internal/rng"
)

// Engine-interface methods (registry.Engine = Simulator + Name +
// TotalRate + Steps) for the three exact DMC engines.

// Name returns the registry name.
func (r *RSM) Name() string { return "rsm" }

// TotalRate returns the constant trial rate N·K of the RSM clock.
func (r *RSM) TotalRate() float64 { return float64(r.cm.Lat.N()) * r.cm.K }

// Steps returns the number of completed Step calls (MC steps).
func (r *RSM) Steps() uint64 { return r.steps }

// Name returns the registry name.
func (v *VSSM) Name() string { return "vssm" }

// Steps returns the number of completed Step calls (= executed events).
func (v *VSSM) Steps() uint64 { return v.events }

// Name returns the registry name.
func (f *FRM) Name() string { return "frm" }

// TotalRate returns Σ k_i over all scheduled reaction instances, the
// aggregate propensity of the current state, computed exactly from the
// per-type instance counts (O(types), no accumulated float drift).
func (f *FRM) TotalRate() float64 {
	total := 0.0
	for rt, n := range f.scheduled {
		total += float64(n) * f.cm.Types[rt].Rate
	}
	return total
}

// Steps returns the number of completed Step calls (= executed events).
func (f *FRM) Steps() uint64 { return f.events }

func init() {
	registry.Register(registry.Spec{
		Name:    "rsm",
		Doc:     "Random Selection Method, the paper's reference DMC (§3)",
		Accepts: registry.OptDeterministicTime,
		New: func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o registry.Options, _ *partition.Partition, _ *partition.TypeSplit) (registry.Engine, error) {
			r := NewRSM(cm, cfg, src)
			r.DeterministicTime = o.DeterministicTime
			return r, nil
		},
	})
	registry.Register(registry.Spec{
		Name: "vssm",
		Doc:  "Variable Step Size Method (Gillespie direct), exact DMC baseline (§3)",
		New: func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o registry.Options, _ *partition.Partition, _ *partition.TypeSplit) (registry.Engine, error) {
			return NewVSSM(cm, cfg, src), nil
		},
	})
	registry.Register(registry.Spec{
		Name: "frm",
		Doc:  "First Reaction Method with an event queue, exact DMC baseline (§3)",
		// Epoch 1: the payload no longer stores per-type counts.
		Epoch: 1,
		New: func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o registry.Options, _ *partition.Partition, _ *partition.TypeSplit) (registry.Engine, error) {
			return NewFRM(cm, cfg, src), nil
		},
	})
}
