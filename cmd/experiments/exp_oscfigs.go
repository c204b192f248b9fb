package main

import (
	"context"
	"fmt"
	"io"

	"parsurf"
	"parsurf/internal/sim"
	"parsurf/internal/stats"
	"parsurf/internal/trace"
)

// oscSetup holds the shared configuration of the Figs. 8–10 runs: the
// Pt(100) oscillation model on a side×side lattice (the paper's is
// 100×100), sampled every dt up to tEnd. err keeps the first error of
// the set-up or of a run; the runs after it are skipped.
type oscSetup struct {
	ctx  context.Context
	lat  *parsurf.Lattice
	cm   *parsurf.Compiled
	tEnd float64
	dt   float64
	seed uint64
	err  error
}

func newOscSetup(ctx context.Context, side int, tEnd float64, seed uint64) *oscSetup {
	s := &oscSetup{ctx: ctx, lat: parsurf.NewSquareLattice(side), tEnd: tEnd, dt: 0.25, seed: seed}
	s.cm, s.err = parsurf.Compile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), s.lat)
	return s
}

// oscSetupFor is the setup a printer runs: 100×100 to t=200, or 50×50
// to t=80 under -quick.
func oscSetupFor(opt options) *oscSetup {
	if opt.quick {
		return newOscSetup(opt.ctx, 50, 80, opt.seed)
	}
	return newOscSetup(opt.ctx, 100, 200, opt.seed)
}

// oscRun is one engine's CO-coverage trajectory and final configuration.
type oscRun struct {
	label string
	co    *stats.Series
	final *parsurf.Config
}

// run builds the named engine over the shared compiled model, seeded
// identically for every engine so the limit cases compare bit for bit,
// and runs it to tEnd sampling the CO coverage every dt. A failure
// lands in s.err.
func (s *oscSetup) run(label, engine string, opts ...parsurf.EngineOption) oscRun {
	cfg := parsurf.NewConfig(s.lat)
	r := oscRun{label: label, co: &stats.Series{}, final: cfg}
	if s.err != nil {
		return r
	}
	eng, err := parsurf.NewEngine(engine, s.cm, cfg, parsurf.NewRNG(s.seed), opts...)
	if err == nil {
		_, _, err = sim.RunContext(s.ctx, eng, s.dt, s.tEnd, sim.ObserverFunc(func(t float64, _ *parsurf.Config) {
			co, _, _ := parsurf.PtCoverages(cfg)
			r.co.Append(t, co)
		}))
	}
	s.err = err
	return r
}

// report prints one line per run: its oscillation over the last three
// quarters of the span and, after the first, its RMSD against the
// first (RSM).
func (s *oscSetup) report(w io.Writer, runs []oscRun) {
	lo := s.tEnd / 4
	for i, r := range runs {
		line := fmt.Sprintf("  %-28s", r.label)
		if osc, ok := stats.DetectOscillation(r.co.Window(lo, s.tEnd), 800, 0.25); ok {
			line += fmt.Sprintf("period %5.1f  amp %.3f  strength %.2f", osc.Period, osc.Amplitude, osc.Strength)
		} else {
			line += "no sustained oscillation"
		}
		if i > 0 {
			line += fmt.Sprintf("  RMSD vs RSM %.3f", stats.RMSD(runs[0].co, r.co, lo, s.tEnd, 400))
		}
		fmt.Fprintln(w, line)
	}
}

// fig8 runs the exact limit cases of Fig. 8 next to RSM: L-PNDCA with
// m=1 (one chunk, L=N) and with m=N (singleton chunks, L=1). Both
// reproduce the RSM trajectory bit for bit.
func fig8(s *oscSetup) ([]oscRun, error) {
	runs := []oscRun{
		s.run("RSM", "rsm"),
		s.run("L-PNDCA m=1,L=N", "lpndca", parsurf.PartitionNamed("singlechunk"), parsurf.Trials(s.lat.N())),
		s.run("L-PNDCA m=N,L=1", "lpndca", parsurf.PartitionNamed("singletons"), parsurf.Trials(1)),
	}
	return runs, s.err
}

func runFig8(w io.Writer, opt options) error {
	s := oscSetupFor(opt)
	runs, err := fig8(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Pt(100) %dx%d to t=%.0f, identical seeds:\n", s.lat.L0, s.lat.L1, s.tEnd)
	fmt.Fprintf(w, "  m=1, L=N  final state identical to RSM: %v\n", runs[1].final.Equal(runs[0].final))
	fmt.Fprintf(w, "  m=N, L=1  final state identical to RSM: %v\n", runs[2].final.Equal(runs[0].final))
	s.report(w, runs)
	fmt.Fprintln(w, "CO coverage (RSM o, m=1 x — curves coincide):")
	fmt.Fprint(w, trace.ASCIIPlot(14, 72, "ox", runs[0].co, runs[1].co))
	return nil
}

// fig9 runs five-chunk L-PNDCA with L=1 and L=100, chunks selected with
// replacement, next to RSM: the paper's claim is that L=1 tracks the
// DMC kinetics and large L introduces the bias of §6.
func fig9(s *oscSetup) ([]oscRun, error) {
	runs := []oscRun{s.run("RSM", "rsm")}
	for _, l := range []int{1, 100} {
		runs = append(runs, s.run(fmt.Sprintf("L-PNDCA L=%d", l), "lpndca",
			parsurf.PartitionNamed("vonneumann5"), parsurf.Trials(l), parsurf.Strategy(parsurf.RandomReplacement)))
	}
	return runs, s.err
}

func runFig9(w io.Writer, opt options) error {
	s := oscSetupFor(opt)
	runs, err := fig9(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Pt(100) %dx%d, five chunks, chunk selection with replacement:\n", s.lat.L0, s.lat.L1)
	s.report(w, runs)
	fmt.Fprintln(w, "a) RSM (o) vs L=1 (x):")
	fmt.Fprint(w, trace.ASCIIPlot(12, 72, "ox", runs[0].co, runs[1].co))
	fmt.Fprintln(w, "b) RSM (o) vs L=100 (x):")
	fmt.Fprint(w, trace.ASCIIPlot(12, 72, "ox", runs[0].co, runs[2].co))
	return nil
}

// fig10 runs five-chunk L-PNDCA at the maximal L = N/m next to RSM,
// sweeping all chunks once per step in random order, and, as the
// contrast, selecting chunks with replacement (the failing mode of
// Fig. 9 pushed further). The paper's claim is that the random order
// preserves the oscillations. It returns L with the runs.
func fig10(s *oscSetup) (int, []oscRun, error) {
	l := s.lat.N() / 5 // the five chunks of Fig. 4's partition
	runs := []oscRun{
		s.run("RSM", "rsm"),
		s.run("random order, once/step", "lpndca",
			parsurf.PartitionNamed("vonneumann5"), parsurf.Trials(l), parsurf.Strategy(parsurf.AllRandomOrder)),
		s.run("with replacement (contrast)", "lpndca",
			parsurf.PartitionNamed("vonneumann5"), parsurf.Trials(l), parsurf.Strategy(parsurf.RandomReplacement)),
	}
	return l, runs, s.err
}

func runFig10(w io.Writer, opt options) error {
	s := oscSetupFor(opt)
	l, runs, err := fig10(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Pt(100) %dx%d, five chunks, L = N/m = %d:\n", s.lat.L0, s.lat.L1, l)
	s.report(w, runs)
	fmt.Fprintln(w, "RSM (o) vs random-order L-PNDCA (x):")
	fmt.Fprint(w, trace.ASCIIPlot(12, 72, "ox", runs[0].co, runs[1].co))
	return nil
}
