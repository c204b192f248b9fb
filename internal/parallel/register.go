package parallel

import (
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/partition"
	"parsurf/internal/registry"
	"parsurf/internal/rng"
)

// Engine-interface methods (registry.Engine) for the
// domain-decomposition baseline.

// Name returns the registry name.
func (d *DDRSM) Name() string { return "ddrsm" }

// TotalRate returns the constant trial rate N·K of the windowed RSM
// clock.
func (d *DDRSM) TotalRate() float64 { return float64(d.cm.Lat.N()) * d.cm.K }

// Steps returns the number of completed Step calls (windowed MC steps).
func (d *DDRSM) Steps() uint64 { return d.steps }

func init() {
	registry.Register(registry.Spec{
		Name:    "ddrsm",
		Doc:     "domain-decomposition RSM over strips, Segers-style baseline (§3)",
		Accepts: registry.OptWorkers | registry.OptDeterministicTime,
		New: func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o registry.Options, _ *partition.Partition, _ *partition.TypeSplit) (registry.Engine, error) {
			workers := o.Workers
			if workers == 0 {
				workers = 2
			}
			d, err := NewDDRSM(cm, cfg, src, workers)
			if err != nil {
				return nil, err
			}
			d.DeterministicTime = o.DeterministicTime
			return d, nil
		},
	})
}
