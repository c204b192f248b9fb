package parsurf_test

import (
	"context"
	"math"
	"testing"

	"parsurf"
	"parsurf/internal/ensemble"
	"parsurf/internal/lattice"
	"parsurf/internal/sim"
	"parsurf/internal/timegrid"
)

// The frm agreement check runs ZGB at y = 0.50 (kCO 0.55 against
// 2·kO2 = 0.55) on a 32² lattice. Replicas start from a random
// configuration near the reactive steady state (θ_CO ≈ 0.06,
// θ_O ≈ 0.51), so the late grid points measure the steady state rather
// than the approach to it.
const (
	agreeSide     = 32
	agreeReplicas = 24
	agreeUntil    = 8.0 // grid points at t = 0, 1, …, agreeUntil
	agreeLate     = 5.0 // points at t >= agreeLate are compared
	agreeK        = 3.5 // bound on |z| at every compared point
)

// zgbCoverage runs agreeReplicas replicas of engine at the given kCO on
// two workers, each replica run through sim.RunGridFrom on the context
// ensemble.Run passes in, and merges the coverage rows through
// ensemble.Accumulator. It returns the per-species mean and standard
// deviation at each grid point.
func zgbCoverage(t *testing.T, engine string, kCO float64) (mean, std [][]float64) {
	t.Helper()
	spec, err := parsurf.NewSpec(
		parsurf.WithLattice(agreeSide, agreeSide),
		parsurf.WithModelPreset("zgb", map[string]float64{"kCO": kCO}),
		parsurf.WithEngine(engine),
		parsurf.WithInit(parsurf.RandomInit(0.43, 0.06, 0.51)),
	)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := timegrid.New(agreeUntil, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	points := grid.Len()
	acc := ensemble.NewAccumulator(3, points, workers)
	err = ensemble.Run(context.Background(), agreeReplicas, workers, func(ctx context.Context, i int) error {
		sess, err := spec.Session()
		if err != nil {
			return err
		}
		sess.Reset(parsurf.NewRNG(2026 + uint64(i)))
		rows := [][]float64{make([]float64, points), make([]float64, points), make([]float64, points)}
		_, err = sim.RunGridFrom(ctx, sess.Engine(), grid, 0, func(k int, cfg *lattice.Config) {
			for sp := range rows {
				rows[sp][k] = cfg.Coverage(lattice.Species(sp))
			}
		})
		if err != nil {
			return err
		}
		return acc.Add(ctx, i, rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	return acc.MeanStd()
}

// worstZ returns the largest |z| of frm's mean CO and O coverage
// against vssm's over the late grid points, with z the difference in
// standard errors of the difference.
func worstZ(t *testing.T, ref, refStd, got, gotStd [][]float64) float64 {
	worst := 0.0
	for _, sp := range []int{1, 2} { // CO, O
		for k := int(agreeLate); k <= int(agreeUntil); k++ {
			se := math.Sqrt((refStd[sp][k]*refStd[sp][k] + gotStd[sp][k]*gotStd[sp][k]) / agreeReplicas)
			z := (got[sp][k] - ref[sp][k]) / se
			t.Logf("species %d t=%d: vssm %.4f frm %.4f (z %+.2f)", sp, k, ref[sp][k], got[sp][k], z)
			worst = max(worst, math.Abs(z))
		}
	}
	return worst
}

// frm samples the same master equation as vssm, so their mean
// coverages agree within agreeK standard errors at every late grid
// point. The same comparison with frm's kCO 5% high must exceed the
// bound, or the check could not tell a wrong frm from a right one. The
// seeds are fixed, so both verdicts are fixed numbers: here the exact
// frm peaks at |z| 1.9 and the 5% error at 4.8. Over seven other seed
// bases the exact frm stayed at or below 2.7 and the 5% error reached
// at least 3.7 every time.
func TestFRMAgreesWithVSSM(t *testing.T) {
	ref, refStd := zgbCoverage(t, "vssm", 0.55)
	t.Run("exact", func(t *testing.T) {
		got, gotStd := zgbCoverage(t, "frm", 0.55)
		if z := worstZ(t, ref, refStd, got, gotStd); z > agreeK {
			t.Errorf("frm departs from vssm by %.2f standard errors, bound %v", z, agreeK)
		}
	})
	t.Run("kCO+5%", func(t *testing.T) {
		got, gotStd := zgbCoverage(t, "frm", 0.55*1.05)
		if z := worstZ(t, ref, refStd, got, gotStd); z <= agreeK {
			t.Errorf("frm with kCO 5%% high stays within %.2f standard errors of vssm (bound %v): the check cannot see a 5%% rate error", z, agreeK)
		}
	})
}
