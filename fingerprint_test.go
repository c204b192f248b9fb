package parsurf_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"parsurf"
	"parsurf/internal/goldentrace"
	"parsurf/internal/model"
)

// modelTraces pins, for every built-in model, the trajectories of the
// engines that refresh enabledness incrementally after each event (vssm,
// frm, and lpndca's rate-weighted chunk tracker). The golden traces
// cover ZGB only; these cover the models whose patterns exercise the
// other dependency shapes: five-site Ising patterns whose unchanged
// triples still gate enabledness, PtCO's six species and phase fronts,
// hops that vacate one site and fill another.
//
// Each run starts from a seeded random configuration at 24² and hashes
// the configuration and clock bits after every step (goldentrace
// fingerprint), then the final SaveState payload, so a change to the
// enabled-list order, the heap layout or the Fenwick residue shows here
// even when the lattice happens to agree.
func TestModelTracesBitIdentical(t *testing.T) {
	const (
		side        = 24
		eventSteps  = 60000
		lpndcaSteps = 50
	)
	models := []struct {
		name    string
		m       *model.Model
		weights []float64
	}{
		{"zgb", model.NewZGB(model.DefaultZGBRates()), []float64{0.5, 0.2, 0.3}},
		{"ptco", model.NewPtCO(model.DefaultPtCORates()), []float64{3, 1, 1, 2, 1, 1}},
		{"ising", model.NewIsing(0.4), []float64{1, 1}},
		{"diffusion", model.NewDimerDiffusion(1), []float64{0.6, 0.4}},
		{"singlefile", model.NewSingleFile(1), []float64{0.5, 0.5}},
		{"ab", model.NewAB(1, 1, 5), []float64{0.4, 0.3, 0.3}},
	}
	engines := []struct {
		name  string
		steps int
		opts  []parsurf.EngineOption
	}{
		{"vssm", eventSteps, nil},
		{"frm", eventSteps, nil},
		{"lpndca", lpndcaSteps, []parsurf.EngineOption{parsurf.StrategyName("rates")}},
	}
	want := map[string]uint64{
		"zgb/vssm":          0x0ed61fd451fa22ad,
		"zgb/frm":           0xa5e8af7ed9c49838,
		"zgb/lpndca":        0x0f8ba1680a182cd8,
		"ptco/vssm":         0xefb94d7ac9c3f656,
		"ptco/frm":          0x1a6f8a6ef74172cc,
		"ptco/lpndca":       0xab9674cfa1aeaa5e,
		"ising/vssm":        0xdb9790e4caa8c216,
		"ising/frm":         0xe230fac7ec52509b,
		"ising/lpndca":      0x51830d94f9de9354,
		"diffusion/vssm":    0xc3ea403f063d1f7d,
		"diffusion/frm":     0x097d2106e596ffca,
		"diffusion/lpndca":  0x339d3548ab548806,
		"singlefile/vssm":   0xf7ada2fc167329de,
		"singlefile/frm":    0x0b65944bd1913cda,
		"singlefile/lpndca": 0x421ece624ae1705b,
		"ab/vssm":           0x865596a8e0d76302,
		"ab/frm":            0x4b8d6fb7afec870f,
		"ab/lpndca":         0x04d29970414da5c4,
	}
	for mi, mc := range models {
		for _, ec := range engines {
			key := mc.name + "/" + ec.name
			t.Run(key, func(t *testing.T) {
				lat := parsurf.NewSquareLattice(side)
				cm := parsurf.MustCompile(mc.m, lat)
				cfg := parsurf.NewConfig(lat)
				cfg.Randomize(mc.weights, parsurf.NewRNG(uint64(100+mi)).Float64)
				eng, err := parsurf.NewEngine(ec.name, cm, cfg, parsurf.NewRNG(uint64(7+mi)), ec.opts...)
				if err != nil {
					t.Fatal(err)
				}
				trace := goldentrace.Fingerprint(eng, ec.steps)
				var state bytes.Buffer
				if err := eng.SaveState(&state); err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				h.Write(binary.LittleEndian.AppendUint64(nil, trace))
				h.Write(state.Bytes())
				if got := h.Sum64(); got != want[key] {
					t.Errorf("%s fingerprint 0x%016x, want 0x%016x — trajectory or saved state changed (%d steps)",
						key, got, want[key], eng.Steps())
				}
			})
		}
	}
}
