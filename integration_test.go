package parsurf_test

import (
	"context"
	"math"
	"testing"

	"parsurf"
	"parsurf/internal/ca"
	"parsurf/internal/dmc"
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
	"parsurf/internal/sim"
	"parsurf/internal/stats"
)

// stepMSD measures the mean-squared displacement per MC step of a lone
// particle on a ring (unwrapped across the periodic boundary).
func stepMSD(t *testing.T, cm *model.Compiled, lat *lattice.Lattice,
	mk func(cfg *lattice.Config, src *rng.Source) dmc.Simulator, seed uint64) (msd, drift float64) {
	t.Helper()
	var sumSq, sum float64
	const reps = 150
	const steps = 20
	for rep := 0; rep < reps; rep++ {
		cfg := lattice.NewConfig(lat)
		start := 32
		cfg.Set(start, 1)
		sim := mk(cfg, rng.New(seed+uint64(rep)))
		pos := start
		for step := 0; step < steps; step++ {
			sim.Step()
			next := -1
			for s := 0; s < lat.N(); s++ {
				if cfg.Get(s) == 1 {
					next = s
					break
				}
			}
			d := next - pos
			if d > lat.N()/2 {
				d -= lat.N()
			}
			if d < -lat.N()/2 {
				d += lat.N()
			}
			sumSq += float64(d * d)
			sum += float64(d)
			pos = next
		}
	}
	return sumSq / (reps * steps), sum / (reps * steps)
}

// coSeries runs eng to tEnd, sampling the Pt(100) CO coverage every dt.
func coSeries(t *testing.T, eng parsurf.Engine, dt, tEnd float64) *stats.Series {
	t.Helper()
	co := &stats.Series{}
	_, _, err := sim.RunContext(context.Background(), eng, dt, tEnd, parsurf.ObserverFunc(func(tm float64, cfg *parsurf.Config) {
		c, _, _ := parsurf.PtCoverages(cfg)
		co.Append(tm, c)
	}))
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// The paper (§4, citing Vichniac) notes that NDCA gives degenerate
// results for some systems, e.g. single-file models, because every site
// is visited exactly once per step in a fixed order. This test makes
// the bias measurable: under a raster sweep a rightward hop carries the
// particle onto the not-yet-visited neighbour site, which is trialled
// again in the same step, so hops compound in the sweep direction. The
// mean displacement stays zero, but the diffusion constant (per-step
// MSD) roughly doubles relative to exact DMC.
func TestIntegrationNDCASweepInflatesDiffusion(t *testing.T) {
	m := model.NewSingleFile(1)
	lat := lattice.New(64, 1)
	cm, err := model.Compile(m, lat)
	if err != nil {
		t.Fatal(err)
	}

	ndcaMSD, ndcaDrift := stepMSD(t, cm, lat, func(cfg *lattice.Config, src *rng.Source) dmc.Simulator {
		return ca.NewNDCA(cm, cfg, src)
	}, 100)
	rsmMSD, rsmDrift := stepMSD(t, cm, lat, func(cfg *lattice.Config, src *rng.Source) dmc.Simulator {
		return dmc.NewRSM(cm, cfg, src)
	}, 200)

	if math.Abs(rsmDrift) > 0.15 || math.Abs(ndcaDrift) > 0.15 {
		t.Fatalf("unexpected mean drift: RSM %v, NDCA %v", rsmDrift, ndcaDrift)
	}
	if ndcaMSD < 1.5*rsmMSD {
		t.Fatalf("raster NDCA MSD/step %v not inflated over RSM %v", ndcaMSD, rsmMSD)
	}
}

// Headline integration: the Pt(100) model oscillates under exact DMC
// with a period of about 14 time units (8–22 allowed for finite-size
// scatter at 50²; `experiments fig8` prints the measured period).
func TestIntegrationPtCOOscillates(t *testing.T) {
	if testing.Short() {
		t.Skip("oscillation run is slow")
	}
	lat := parsurf.NewSquareLattice(50)
	cm := parsurf.MustCompile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), lat)
	co := coSeries(t, newEngine(t, "vssm", cm, lat, 11), 0.25, 120)
	oscn, ok := stats.DetectOscillation(co.Window(30, 120), 600, 0.3)
	if !ok {
		t.Fatal("no oscillation under exact DMC")
	}
	if oscn.Period < 8 || oscn.Period > 22 {
		t.Fatalf("period %v outside the recorded 14±(finite-size) band", oscn.Period)
	}
	if oscn.Amplitude < 0.1 {
		t.Fatalf("amplitude %v too small", oscn.Amplitude)
	}
	// Spectral cross-check: the periodogram finds the same period.
	p, _, ok := stats.DominantPeriod(co.Window(30, 120), 512)
	if ok && (p < oscn.Period/2 || p > oscn.Period*2) {
		t.Fatalf("periodogram period %v disagrees with autocorrelation %v", p, oscn.Period)
	}
}

// The L-PNDCA accuracy ordering of Fig. 9 at integration scale: with a
// shared reference, small L deviates less than large L, on average over
// seeds. Uses the deterministic-time variant to remove clock noise.
func TestIntegrationLPNDCAAccuracyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy comparison is slow")
	}
	lat := parsurf.NewSquareLattice(50)
	cm := parsurf.MustCompile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), lat)
	run := func(name string, seed uint64, opts ...parsurf.EngineOption) *stats.Series {
		return coSeries(t, newEngine(t, name, cm, lat, 400+seed, opts...), 0.25, 60)
	}
	vn5 := parsurf.PartitionNamed("vonneumann5")
	var rmsd1, rmsd500 float64
	const seeds = 3
	for seed := uint64(0); seed < seeds; seed++ {
		ref := run("rsm", seed)
		l1 := run("lpndca", seed, vn5, parsurf.Trials(1))
		l500 := run("lpndca", seed, vn5, parsurf.Trials(500), parsurf.Strategy(parsurf.RandomReplacement))
		rmsd1 += stats.RMSD(ref, l1, 15, 60, 300)
		rmsd500 += stats.RMSD(ref, l500, 15, 60, 300)
	}
	// Averaged over seeds the large-L bias must not be smaller than the
	// small-L one (allow equality noise with a small margin).
	if rmsd500 < rmsd1*0.9 {
		t.Fatalf("L=500 mean RMSD %.3f below L=1 %.3f", rmsd500/seeds, rmsd1/seeds)
	}
}

// Engine cross-validation on the oscillating model: RSM and VSSM agree
// on the oscillation period (they sample the same Master Equation).
func TestIntegrationRSMVSSMSameOscillation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	lat := parsurf.NewSquareLattice(50)
	cm := parsurf.MustCompile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), lat)
	period := func(name string, seed uint64) float64 {
		co := coSeries(t, newEngine(t, name, cm, lat, seed), 0.25, 120)
		o, ok := stats.DetectOscillation(co.Window(30, 120), 600, 0.25)
		if !ok {
			t.Fatal("oscillation missing")
		}
		return o.Period
	}
	pRSM := period("rsm", 21)
	pVSSM := period("vssm", 22)
	if math.Abs(pRSM-pVSSM) > 0.35*pRSM {
		t.Fatalf("period disagreement: RSM %v vs VSSM %v", pRSM, pVSSM)
	}
}
