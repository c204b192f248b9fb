package parsurf_test

import (
	"testing"

	"parsurf/internal/goldentrace"
)

// modelTraces pins, for every built-in model, the trajectories of the
// engines that refresh enabledness incrementally after each event (vssm,
// frm, and lpndca's rate-weighted chunk tracker); goldentrace.ModelCases
// lists the runs. Each entry is a {configuration, clock} pair: the
// configuration half covers the lattice after every step and the final
// SaveState payload after its clock word, so a change to the
// enabled-list order, the heap layout or the Fenwick residue shows here
// even when the lattice happens to agree. Regenerate with
// cmd/goldengen, and only on purpose.
var modelTraces = map[string]goldentrace.Trace{
	"zgb/vssm":          {Config: 0xecabab70e82a4579, Clock: 0x5f68faa0d4b8990b},
	"zgb/frm":           {Config: 0x714e511edd9548a7, Clock: 0xe8792deac1605816},
	"zgb/lpndca":        {Config: 0xfd45aac2d9800046, Clock: 0x4017a3ba6eabed40},
	"ptco/vssm":         {Config: 0x26f8ad39fd442e01, Clock: 0x89e049770e711b84},
	"ptco/frm":          {Config: 0xbeb84fac43aa4018, Clock: 0xc462f7eb7fb0ee4a},
	"ptco/lpndca":       {Config: 0x38e18319fd5edb42, Clock: 0x0d2f746c755dc361},
	"ising/vssm":        {Config: 0x0aa8b8881564411a, Clock: 0xad29b6567a4acaed},
	"ising/frm":         {Config: 0x18ac3e929c8e2eb1, Clock: 0x79999ad31b211f98},
	"ising/lpndca":      {Config: 0x0f51f08395c004c4, Clock: 0x3ac4617e2cc23221},
	"diffusion/vssm":    {Config: 0xe11e23fc7f8c90a1, Clock: 0x117ca845b871efdf},
	"diffusion/frm":     {Config: 0xa6c2cfd54aed83d4, Clock: 0x4f0d8d89025fc9e0},
	"diffusion/lpndca":  {Config: 0x8db19c4891bc6f5f, Clock: 0xfeac35c908e54a7b},
	"singlefile/vssm":   {Config: 0x5284d772ae5e6680, Clock: 0x75f2902dbe435d14},
	"singlefile/frm":    {Config: 0xb105f4180ecc361a, Clock: 0x9b1ea48eefb2d80e},
	"singlefile/lpndca": {Config: 0x6df3598bc8a11c2b, Clock: 0x10dcec966f9bf20f},
	"ab/vssm":           {Config: 0x4b7d9df02a778ac2, Clock: 0x6effd6fba7838a3b},
	"ab/frm":            {Config: 0xc9e9f60793e947a8, Clock: 0x20f9091655283be7},
	"ab/lpndca":         {Config: 0x57b3906490a7aeaf, Clock: 0x95a73ff9c8290166},
}

func TestModelTracesBitIdentical(t *testing.T) {
	for _, c := range goldentrace.ModelCases() {
		t.Run(c.Key(), func(t *testing.T) {
			want, ok := modelTraces[c.Key()]
			if !ok {
				t.Fatalf("%s has no model trace; run cmd/goldengen and add it", c.Key())
			}
			got, eng, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got.Config != want.Config {
				t.Errorf("%s configuration fingerprint 0x%016x, want 0x%016x — trajectory or saved state changed (%d steps)",
					c.Key(), got.Config, want.Config, eng.Steps())
			}
			if got.Clock != want.Clock {
				t.Errorf("%s clock fingerprint 0x%016x, want 0x%016x — clock changed (%d steps)",
					c.Key(), got.Clock, want.Clock, eng.Steps())
			}
		})
	}
}
