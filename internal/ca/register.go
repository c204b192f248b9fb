package ca

import (
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/partition"
	"parsurf/internal/registry"
	"parsurf/internal/rng"
)

// Engine-interface methods (registry.Engine) for the CA engines.

// Name returns the registry name.
func (a *NDCA) Name() string { return "ndca" }

// TotalRate returns the constant trial rate N·K of the NDCA clock.
func (a *NDCA) TotalRate() float64 { return float64(a.cm.Lat.N()) * a.cm.K }

// Steps returns the number of completed Step calls (full sweeps).
func (a *NDCA) Steps() uint64 { return a.steps }

// Name returns the registry name.
func (a *SyncNDCA) Name() string { return "syncndca" }

// TotalRate returns the constant trial rate N·K underlying the
// synchronous step clock.
func (a *SyncNDCA) TotalRate() float64 { return float64(a.cm.Lat.N()) * a.cm.K }

// Name returns the registry name.
func (b *BCA) Name() string { return "bca" }

// TotalRate returns the constant trial rate N·K of the BCA clock.
func (b *BCA) TotalRate() float64 { return float64(b.cm.Lat.N()) * b.cm.K }

// Steps returns the number of completed Step calls (tiling sweeps).
func (b *BCA) Steps() uint64 { return b.steps }

// defaultBlock is the BCA block side used when the options leave the
// geometry unset; the half-block shifted origin realises Fig. 3's
// moving boundaries.
const defaultBlock = 4

func init() {
	registry.Register(registry.Spec{
		Name:    "ndca",
		Doc:     "Non-Deterministic Cellular Automaton, site-sequential (§4)",
		Accepts: registry.OptDeterministicTime,
		New: func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o registry.Options, _ *partition.Partition, _ *partition.TypeSplit) (registry.Engine, error) {
			a := NewNDCA(cm, cfg, src)
			a.DeterministicTime = o.DeterministicTime
			return a, nil
		},
	})
	registry.Register(registry.Spec{
		Name:    "syncndca",
		Doc:     "fully synchronous NDCA with conflict resolution (§4, Fig. 2)",
		Accepts: registry.OptDeterministicTime,
		New: func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o registry.Options, _ *partition.Partition, _ *partition.TypeSplit) (registry.Engine, error) {
			a := NewSyncNDCA(cm, cfg, src)
			a.DeterministicTime = o.DeterministicTime
			return a, nil
		},
	})
	registry.Register(registry.Spec{
		Name:    "bca",
		Doc:     "Block Cellular Automaton with shifting tilings (§5, Fig. 3)",
		Accepts: registry.OptBlocks | registry.OptDeterministicTime,
		New: func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o registry.Options, _ *partition.Partition, _ *partition.TypeSplit) (registry.Engine, error) {
			bw, bh := o.BlockW, o.BlockH
			if bw == 0 && bh == 0 {
				bw, bh = defaultBlock, defaultBlock
			}
			origins := []lattice.Vec{{DX: 0, DY: 0}, {DX: bw / 2, DY: bh / 2}}
			b, err := NewBCA(cm, cfg, src, bw, bh, origins)
			if err != nil {
				return nil, err
			}
			b.DeterministicTime = o.DeterministicTime
			return b, nil
		},
	})
}
