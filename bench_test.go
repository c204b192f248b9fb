// Benchmarks regenerating the computational core of every table and
// figure in the paper's evaluation, the per-engine step cost, and a few
// ablations. Sizes are scaled down from the paper's 100×100/1000×1000 so
// `go test -bench=.` completes quickly; cmd/experiments runs the
// full-size versions.
package parsurf_test

import (
	"fmt"
	"testing"

	"parsurf"
	"parsurf/internal/ca"
	"parsurf/internal/core"
	"parsurf/internal/lattice"
	"parsurf/internal/stats"
	"parsurf/internal/ziff"
)

// --- Table I ---------------------------------------------------------

// BenchmarkTable1ZGBTrials measures the cost of RSM trials on the seven
// reaction types of Table I.
func BenchmarkTable1ZGBTrials(b *testing.B) {
	lat := parsurf.NewSquareLattice(64)
	cm := parsurf.MustCompile(parsurf.NewZGBModel(parsurf.DefaultZGBRates()), lat)
	sim := newEngine(b, "rsm", cm, lat, 1).(*parsurf.RSM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Trial()
	}
}

// --- Table II --------------------------------------------------------

// BenchmarkTable2TypePartitioned measures one step of the Ω×T algorithm
// over the Table II split.
func BenchmarkTable2TypePartitioned(b *testing.B) {
	lat := parsurf.NewSquareLattice(64)
	cm := parsurf.MustCompile(parsurf.NewZGBModel(parsurf.DefaultZGBRates()), lat)
	sim := newEngine(b, "typepart", cm, lat, 1, parsurf.TypeSplitNamed("bydirection"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// --- Fig. 3 ----------------------------------------------------------

// BenchmarkFig3BCA1D measures the shifting-block 1-D CA.
func BenchmarkFig3BCA1D(b *testing.B) {
	initial := make([]lattice.Species, 3*64)
	for i := range initial {
		initial[i] = 1
	}
	initial[0] = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.BCA1D(initial, 3, 1, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 4 ----------------------------------------------------------

// BenchmarkFig4PartitionBuildVerify measures constructing the five-chunk
// partition and verifying the non-overlap rule at the paper's 100×100.
func BenchmarkFig4PartitionBuildVerify(b *testing.B) {
	lat := parsurf.NewSquareLattice(100)
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := parsurf.VonNeumann5(lat)
		if err != nil {
			b.Fatal(err)
		}
		if err := parsurf.VerifyNonOverlap(p, m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 6 ----------------------------------------------------------

// BenchmarkFig6SplitByDirection measures building and verifying the
// Table II / Fig. 6 checkerboard type split.
func BenchmarkFig6SplitByDirection(b *testing.B) {
	lat := parsurf.NewSquareLattice(100)
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := parsurf.SplitByDirection(m, lat)
		if err != nil {
			b.Fatal(err)
		}
		if err := ts.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 7 ----------------------------------------------------------

// BenchmarkFig7Speedup evaluates the full modeled speedup surface of
// Fig. 7 (9 sizes × 9 worker counts).
func BenchmarkFig7Speedup(b *testing.B) {
	mm := parsurf.DefaultMachine()
	sides := []int{200, 300, 400, 500, 600, 700, 800, 900, 1000}
	workers := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mm.SpeedupSurface(sides, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7PNDCAWorkers measures a real parallel PNDCA step at
// several worker counts (bit-identical trajectories; wall-clock gain
// requires multiple cores).
func BenchmarkFig7PNDCAWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			lat := parsurf.NewSquareLattice(50)
			cm := parsurf.MustCompile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), lat)
			sim := newEngine(b, "pndca", cm, lat, 1,
				parsurf.PartitionNamed("vonneumann5"), parsurf.Workers(workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
}

// --- Fig. 8 ----------------------------------------------------------

// BenchmarkFig8Limits measures L-PNDCA at the RSM-equivalent limit
// (m=1, L=N) on the Pt(100) model.
func BenchmarkFig8Limits(b *testing.B) {
	lat := parsurf.NewSquareLattice(40)
	cm := parsurf.MustCompile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), lat)
	sim := newEngine(b, "lpndca", cm, lat, 1,
		parsurf.PartitionNamed("singlechunk"), parsurf.Trials(lat.N()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// --- Fig. 9 ----------------------------------------------------------

// BenchmarkFig9L measures L-PNDCA steps for the two L values of Fig. 9.
func BenchmarkFig9L(b *testing.B) {
	for _, l := range []int{1, 100} {
		b.Run(benchName("L", l), func(b *testing.B) {
			lat := parsurf.NewSquareLattice(40)
			cm := parsurf.MustCompile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), lat)
			sim := newEngine(b, "lpndca", cm, lat, 1,
				parsurf.PartitionNamed("vonneumann5"), parsurf.Trials(l))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
}

// --- Fig. 10 ---------------------------------------------------------

// BenchmarkFig10RandomOrder measures the random-order once-per-step
// sweep at the maximal L = N/m.
func BenchmarkFig10RandomOrder(b *testing.B) {
	lat := parsurf.NewSquareLattice(40)
	cm := parsurf.MustCompile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), lat)
	part, err := parsurf.VonNeumann5(lat)
	if err != nil {
		b.Fatal(err)
	}
	sim := newEngine(b, "lpndca", cm, lat, 1, parsurf.PartitionNamed("vonneumann5"),
		parsurf.Trials(lat.N()/part.NumChunks()), parsurf.Strategy(parsurf.AllRandomOrder))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// --- Ziff phase diagram ---------------------------------------------

// BenchmarkZGBPhaseDiagram measures one phase-diagram point of the
// classic adsorption-limited ZGB model.
func BenchmarkZGBPhaseDiagram(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ziff.Measure(32, 0.46, 20, 10, uint64(i))
	}
}

// --- Engine step cost ------------------------------------------------

// BenchmarkEngineStep times one Step of every registered engine at
// NewEngine defaults on the ZGB model at 64², 128² and 256², reporting
// ns/event: an event is one reaction trial for the trial-based engines
// (one Step = one MC step of N trials) and one executed reaction for
// the event-based vssm and frm. The engine warms up first so its
// enabled sets, queues and scratch buffers are at working capacity and
// the timed steps are the allocation-free steady state. Profile one
// engine with
//
//	go test -run '^$' -bench 'EngineStep/vssm/256' -cpuprofile cpu.pprof .
func BenchmarkEngineStep(b *testing.B) {
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	for _, name := range parsurf.Engines() {
		for _, side := range []int{64, 128, 256} {
			b.Run(fmt.Sprintf("%s/%d", name, side), func(b *testing.B) {
				lat := parsurf.NewSquareLattice(side)
				eng, err := parsurf.NewEngine(name, parsurf.MustCompile(m, lat),
					parsurf.NewConfig(lat), parsurf.NewRNG(2003))
				if err != nil {
					b.Fatal(err)
				}
				events, warm := lat.N(), 10
				if name == "vssm" || name == "frm" {
					events, warm = 1, 10*lat.N()
				}
				for i := 0; i < warm; i++ {
					if !eng.Step() {
						b.Fatalf("absorbed during warm-up after %d steps", i)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !eng.Step() {
						b.Fatalf("absorbed after %d timed steps", i)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
			})
		}
	}
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblationChunkStrategies compares the four §5 chunk-selection
// strategies of L-PNDCA.
func BenchmarkAblationChunkStrategies(b *testing.B) {
	lat := parsurf.NewSquareLattice(50)
	cm := parsurf.MustCompile(parsurf.NewZGBModel(parsurf.DefaultZGBRates()), lat)
	for _, s := range []struct {
		name     string
		strategy core.Strategy
	}{
		{"order", parsurf.AllInOrder},
		{"randomorder", parsurf.AllRandomOrder},
		{"replacement", parsurf.RandomReplacement},
		{"rates", parsurf.RateWeighted},
	} {
		b.Run(s.name, func(b *testing.B) {
			sim := newEngine(b, "lpndca", cm, lat, 1, parsurf.PartitionNamed("vonneumann5"),
				parsurf.Trials(10), parsurf.Strategy(s.strategy))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
}

// BenchmarkAblationSyncConflicts measures the synchronous NDCA with
// conflict resolution (what partitions avoid paying per step).
func BenchmarkAblationSyncConflicts(b *testing.B) {
	lat := parsurf.NewSquareLattice(64)
	cm := parsurf.MustCompile(parsurf.NewDiffusionModel(1), lat)
	cfg := parsurf.NewConfig(lat)
	cfg.Randomize([]float64{0.5, 0.5}, parsurf.NewRNG(2).Float64)
	sim, err := parsurf.NewEngine("syncndca", cm, cfg, parsurf.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkAblationDDRSM measures the Segers-style domain-decomposition
// baseline per MC step.
func BenchmarkAblationDDRSM(b *testing.B) {
	lat := parsurf.NewSquareLattice(64)
	cm := parsurf.MustCompile(parsurf.NewZGBModel(parsurf.DefaultZGBRates()), lat)
	sim := newEngine(b, "ddrsm", cm, lat, 1, parsurf.Workers(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkAblationOscillationDetection measures the analysis pipeline
// of Figs. 8–10 (resampling + autocorrelation).
func BenchmarkAblationOscillationDetection(b *testing.B) {
	s := &stats.Series{}
	src := parsurf.NewRNG(3)
	for i := 0; i <= 4000; i++ {
		t := float64(i) * 0.25
		s.Append(t, 0.4+0.3*osc(t)+0.02*(src.Float64()-0.5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := stats.DetectOscillation(s, 800, 0.2); !ok {
			b.Fatal("oscillation lost")
		}
	}
}

func osc(t float64) float64 {
	// Triangle wave with period 25, cheap stand-in for a sine.
	phase := t / 25
	frac := phase - float64(int(phase))
	if frac < 0.5 {
		return 4*frac - 1
	}
	return 3 - 4*frac
}

func benchName(prefix string, v int) string {
	if v < 10 {
		return prefix + "=" + string(rune('0'+v))
	}
	out := ""
	for v > 0 {
		out = string(rune('0'+v%10)) + out
		v /= 10
	}
	return prefix + "=" + out
}
