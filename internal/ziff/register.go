package ziff

import (
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/partition"
	"parsurf/internal/registry"
	"parsurf/internal/rng"
)

// Engine-interface methods (registry.Engine). The ZGB clock counts MC
// steps (one trial per site at unit rate), so the aggregate trial rate
// is N.

// Name returns the registry name.
func (z *ZGB) Name() string { return "ziff" }

// TotalRate returns the trial rate N of the adsorption-limited clock.
func (z *ZGB) TotalRate() float64 { return float64(z.lat.N()) }

// Steps returns the number of completed Step calls (MC steps).
func (z *ZGB) Steps() uint64 { return z.steps }

// defaultY is the CO fraction used when the options leave it unset:
// the middle of the reactive window of the phase diagram.
const defaultY = 0.5

func init() {
	registry.Register(registry.Spec{
		Name:      "ziff",
		Doc:       "classic adsorption-limited Ziff–Gulari–Barshad model (§1)",
		Accepts:   registry.OptY,
		ModelFree: true,
		New: func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o registry.Options, _ *partition.Partition, _ *partition.TypeSplit) (registry.Engine, error) {
			y := defaultY
			if o.Y != nil {
				y = *o.Y
			}
			return NewOn(cfg, src, y), nil
		},
	})
}
