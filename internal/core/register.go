package core

import (
	"fmt"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/partition"
	"parsurf/internal/registry"
	"parsurf/internal/rng"
)

// Engine-interface methods (registry.Engine) for the partitioned
// engines, the paper's contribution.

// Name returns the registry name.
func (p *PNDCA) Name() string { return "pndca" }

// TotalRate returns the constant trial rate N·K of the PNDCA clock.
func (p *PNDCA) TotalRate() float64 { return float64(p.cm.Lat.N()) * p.cm.K }

// Name returns the registry name.
func (e *LPNDCA) Name() string { return "lpndca" }

// TotalRate returns the constant trial rate N·K of the L-PNDCA clock.
func (e *LPNDCA) TotalRate() float64 { return float64(e.cm.Lat.N()) * e.cm.K }

// Steps returns the number of completed Step calls (MC steps).
func (e *LPNDCA) Steps() uint64 { return e.steps }

// Name returns the registry name.
func (e *TypePartitioned) Name() string { return "typepart" }

// TotalRate returns the constant trial rate N·K underlying the Ω×T
// sweep clock.
func (e *TypePartitioned) TotalRate() float64 { return float64(e.cm.Lat.N()) * e.cm.K }

// String returns the strategy's registry/CLI name.
func (s Strategy) String() string {
	switch s {
	case AllInOrder:
		return "order"
	case AllRandomOrder:
		return "randomorder"
	case RandomReplacement:
		return "random"
	case RateWeighted:
		return "rates"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy resolves a chunk-selection strategy by name.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "order":
		return AllInOrder, nil
	case "randomorder":
		return AllRandomOrder, nil
	case "random":
		return RandomReplacement, nil
	case "rates":
		return RateWeighted, nil
	}
	return 0, fmt.Errorf("core: unknown chunk-selection strategy %q (want order, randomorder, random or rates)", name)
}

// defaultPartition resolves the partition for the partitioned engines
// when the options leave it unset: the paper's five-chunk von Neumann
// partition when it tiles the lattice and satisfies the non-overlap rule
// for the model, otherwise the smallest valid modular colouring.
func defaultPartition(cm *model.Compiled) (*partition.Partition, error) {
	if p, err := partition.VonNeumann5(cm.Lat); err == nil {
		if partition.VerifyNonOverlap(p, cm.Model) == nil {
			return p, nil
		}
	}
	p, err := partition.ModularColoring(cm.Model, cm.Lat, 64)
	if err != nil {
		return nil, fmt.Errorf("core: no default partition for this model/lattice (pass one explicitly): %w", err)
	}
	return p, nil
}

func init() {
	registry.Register(registry.Spec{
		Name:    "pndca",
		Doc:     "Partitioned NDCA, chunk sweeps on parallel goroutines (§5)",
		Accepts: registry.OptPartition | registry.OptWorkers | registry.OptDeterministicTime,
		New: func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o registry.Options, part *partition.Partition, _ *partition.TypeSplit) (registry.Engine, error) {
			if part == nil {
				var err error
				if part, err = defaultPartition(cm); err != nil {
					return nil, err
				}
			}
			p := NewPNDCA(cm, cfg, src, part)
			p.Workers = o.Workers
			p.DeterministicTime = o.DeterministicTime
			return p, nil
		},
	})
	registry.Register(registry.Spec{
		Name:    "lpndca",
		Doc:     "generalised L-trials partitioned NDCA, four chunk strategies (§5)",
		Accepts: registry.OptPartition | registry.OptL | registry.OptStrategy | registry.OptDeterministicTime,
		New: func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o registry.Options, part *partition.Partition, _ *partition.TypeSplit) (registry.Engine, error) {
			if part == nil {
				var err error
				if part, err = defaultPartition(cm); err != nil {
					return nil, err
				}
			}
			e := NewLPNDCA(cm, cfg, src, part, max(o.L, 1))
			if o.Strategy != "" {
				// CheckOptions accepted the name, and its list matches
				// ParseStrategy's (TestStrategyNamesMatchRegistry).
				e.Strategy, _ = ParseStrategy(o.Strategy)
			}
			e.DeterministicTime = o.DeterministicTime
			return e, nil
		},
	})
	registry.Register(registry.Spec{
		Name:    "typepart",
		Doc:     "Ω×T type-partitioned algorithm over checkerboards (§5, Table II)",
		Accepts: registry.OptTypeSplit | registry.OptWorkers | registry.OptDeterministicTime,
		New: func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o registry.Options, _ *partition.Partition, split *partition.TypeSplit) (registry.Engine, error) {
			if split == nil {
				var err error
				if split, err = partition.SplitByDirection(cm.Model, cm.Lat); err != nil {
					return nil, fmt.Errorf("core: no default type split for this model (pass one explicitly): %w", err)
				}
			}
			e := NewTypePartitioned(cm, cfg, src, split)
			e.Workers = o.Workers
			e.DeterministicTime = o.DeterministicTime
			return e, nil
		},
	})
}
