package main

import (
	"context"
	"fmt"

	"parsurf"
	"parsurf/internal/sim"
	"parsurf/internal/stats"
	"parsurf/internal/trace"
)

// oscSetup holds the shared configuration of the Figs. 8–10 runs: the
// Pt(100) oscillation model on the paper's 100×100 lattice.
type oscSetup struct {
	lat  *parsurf.Lattice
	cm   *parsurf.Compiled
	tEnd float64
	dt   float64
	seed uint64
}

func newOscSetup(opt options) (*oscSetup, error) {
	side := 100
	tEnd := 200.0
	if opt.quick {
		side = 50
		tEnd = 80
	}
	lat := parsurf.NewSquareLattice(side)
	m := parsurf.NewPtCOModel(parsurf.DefaultPtCORates())
	cm, err := parsurf.Compile(m, lat)
	if err != nil {
		return nil, err
	}
	return &oscSetup{lat: lat, cm: cm, tEnd: tEnd, dt: 0.25, seed: opt.seed}, nil
}

// engine builds a named engine over the shared compiled model, seeded
// identically for every engine so the limit cases compare bit for bit.
func (s *oscSetup) engine(name string, cfg *parsurf.Config, opts ...parsurf.EngineOption) parsurf.Engine {
	eng, err := parsurf.NewEngine(name, s.cm, cfg, parsurf.NewRNG(s.seed), opts...)
	if err != nil {
		panic(err) // static engine names and options; cannot fail at run time
	}
	return eng
}

// coSeries runs the engine to tEnd sampling the CO coverage.
func (s *oscSetup) coSeries(eng parsurf.Engine, cfg *parsurf.Config) *stats.Series {
	out := &stats.Series{}
	_, _, err := sim.RunContext(context.Background(), eng, s.dt, s.tEnd, sim.ObserverFunc(func(t float64, _ *parsurf.Config) {
		co, _, _ := parsurf.PtCoverages(cfg)
		out.Append(t, co)
	}))
	if err != nil {
		panic(err) // static dt and horizon; cannot fail at run time
	}
	return out
}

func (s *oscSetup) report(name string, co *stats.Series, ref *stats.Series) {
	lo := s.tEnd / 4
	line := fmt.Sprintf("  %-28s", name)
	if osc, ok := stats.DetectOscillation(co.Window(lo, s.tEnd), 800, 0.25); ok {
		line += fmt.Sprintf("period %5.1f  amp %.3f  strength %.2f", osc.Period, osc.Amplitude, osc.Strength)
	} else {
		line += "no sustained oscillation"
	}
	if ref != nil {
		line += fmt.Sprintf("  RMSD vs RSM %.3f", stats.RMSD(ref, co, lo, s.tEnd, 400))
	}
	fmt.Println(line)
}

// runFig8 verifies the exact limit cases of Fig. 8: L-PNDCA with m=1
// (one chunk, L=N) and with m=N (singleton chunks, L=1) reproduce the
// RSM trajectory bit for bit.
func runFig8(opt options) error {
	s, err := newOscSetup(opt)
	if err != nil {
		return err
	}
	n := s.lat.N()

	cfgR := parsurf.NewConfig(s.lat)
	coR := s.coSeries(s.engine("rsm", cfgR), cfgR)

	cfg1 := parsurf.NewConfig(s.lat)
	e1 := s.engine("lpndca", cfg1,
		parsurf.PartitionNamed("singlechunk"), parsurf.Trials(n))
	co1 := s.coSeries(e1, cfg1)

	cfgN := parsurf.NewConfig(s.lat)
	eN := s.engine("lpndca", cfgN,
		parsurf.PartitionNamed("singletons"), parsurf.Trials(1))
	coN := s.coSeries(eN, cfgN)

	fmt.Printf("Pt(100) %dx%d to t=%.0f, identical seeds:\n", s.lat.L0, s.lat.L1, s.tEnd)
	fmt.Printf("  m=1, L=N  final state identical to RSM: %v\n", cfg1.Equal(cfgR))
	fmt.Printf("  m=N, L=1  final state identical to RSM: %v\n", cfgN.Equal(cfgR))
	s.report("RSM", coR, nil)
	s.report("L-PNDCA m=1,L=N", co1, coR)
	s.report("L-PNDCA m=N,L=1", coN, coR)
	fmt.Println("CO coverage (RSM o, m=1 x — curves coincide):")
	fmt.Print(trace.ASCIIPlot(14, 72, "ox", coR, co1))
	return nil
}

// runFig9 compares five-chunk L-PNDCA with L=1 and L=100 against RSM:
// L=1 tracks the DMC kinetics, large L introduces the bias of §6.
func runFig9(opt options) error {
	s, err := newOscSetup(opt)
	if err != nil {
		return err
	}
	cfgR := parsurf.NewConfig(s.lat)
	coR := s.coSeries(s.engine("rsm", cfgR), cfgR)

	series := map[int]*stats.Series{}
	for _, l := range []int{1, 100} {
		cfg := parsurf.NewConfig(s.lat)
		e := s.engine("lpndca", cfg, parsurf.PartitionNamed("vonneumann5"),
			parsurf.Trials(l), parsurf.Strategy(parsurf.RandomReplacement))
		series[l] = s.coSeries(e, cfg)
	}

	fmt.Printf("Pt(100) %dx%d, five chunks, chunk selection with replacement:\n", s.lat.L0, s.lat.L1)
	s.report("RSM", coR, nil)
	s.report("L-PNDCA L=1", series[1], coR)
	s.report("L-PNDCA L=100", series[100], coR)
	fmt.Println("a) RSM (o) vs L=1 (x):")
	fmt.Print(trace.ASCIIPlot(12, 72, "ox", coR, series[1]))
	fmt.Println("b) RSM (o) vs L=100 (x):")
	fmt.Print(trace.ASCIIPlot(12, 72, "ox", coR, series[100]))
	return nil
}

// runFig10 shows that sweeping all chunks once per step in random order
// preserves the oscillations even at the maximal L = N/m.
func runFig10(opt options) error {
	s, err := newOscSetup(opt)
	if err != nil {
		return err
	}
	part, err := parsurf.VonNeumann5(s.lat)
	if err != nil {
		return err
	}
	l := s.lat.N() / part.NumChunks()

	cfgR := parsurf.NewConfig(s.lat)
	coR := s.coSeries(s.engine("rsm", cfgR), cfgR)

	cfgA := parsurf.NewConfig(s.lat)
	eA := s.engine("lpndca", cfgA, parsurf.PartitionNamed("vonneumann5"),
		parsurf.Trials(l), parsurf.Strategy(parsurf.AllRandomOrder))
	coA := s.coSeries(eA, cfgA)

	// Contrast: the same L with replacement selection (the failing mode
	// of Fig. 9 pushed further).
	cfgB := parsurf.NewConfig(s.lat)
	eB := s.engine("lpndca", cfgB, parsurf.PartitionNamed("vonneumann5"),
		parsurf.Trials(l), parsurf.Strategy(parsurf.RandomReplacement))
	coB := s.coSeries(eB, cfgB)

	fmt.Printf("Pt(100) %dx%d, five chunks, L = N/m = %d:\n", s.lat.L0, s.lat.L1, l)
	s.report("RSM", coR, nil)
	s.report("random order, once/step", coA, coR)
	s.report("with replacement (contrast)", coB, coR)
	fmt.Println("RSM (o) vs random-order L-PNDCA (x):")
	fmt.Print(trace.ASCIIPlot(12, 72, "ox", coR, coA))
	return nil
}
