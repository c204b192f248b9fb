package main

import (
	"context"
	"fmt"
	"io"

	"parsurf"
	"parsurf/internal/trace"
)

// ddRow is one worker count of the Segers domain-decomposition contrast:
// the measured boundary trials per step and the modeled step times of
// DDRSM and PNDCA.
type ddRow struct {
	p        int
	boundary uint64
	tDD, tPN float64
}

// fig7 regenerates the speedup surface T(1,N)/T(p,N) of Fig. 7,
// indexed [side][worker], on the simulated parallel machine
// (internal/machine, standing in for the paper's parallel hardware).
// same reports whether 8 goroutine workers end a 20-step checkSide²
// Pt(100) run in the same configuration as 1. dd models the
// Segers-style domain decomposition's step time from its measured
// boundary trials on ZGB 100×100 at 2, 4 and 8 workers.
func fig7(ctx context.Context, sides, workers []int, checkSide int, seed uint64) (surface [][]float64, same bool, dd []ddRow, err error) {
	mm := parsurf.DefaultMachine()
	if surface, err = mm.SpeedupSurface(sides, workers); err != nil {
		return nil, false, nil, err
	}

	// Fidelity: the goroutine-parallel sweep is bit-identical to the
	// sequential one, so the modeled concurrency reflects a real
	// execution.
	var final [2]*parsurf.Config
	for i, w := range []int{1, 8} {
		sess, err := parsurf.NewSession(
			parsurf.WithModel(parsurf.NewPtCOModel(parsurf.DefaultPtCORates())),
			parsurf.WithLattice(checkSide, checkSide),
			parsurf.WithEngine("pndca", parsurf.Workers(w)),
			parsurf.WithSeed(seed),
		)
		if err != nil {
			return nil, false, nil, err
		}
		if _, err := sess.Run(ctx, parsurf.ForSteps(20)); err != nil {
			return nil, false, nil, err
		}
		final[i] = sess.Config()
	}

	// Segers baseline: measure the boundary communication volume of the
	// domain decomposition and model its step time next to PNDCA's.
	zlat := parsurf.NewSquareLattice(100)
	zcm, err := parsurf.Compile(table1(), zlat)
	if err != nil {
		return nil, false, nil, err
	}
	zpart, err := parsurf.VonNeumann5(zlat)
	if err != nil {
		return nil, false, nil, err
	}
	for _, p := range []int{2, 4, 8} {
		eng, err := parsurf.NewEngine("ddrsm", zcm, parsurf.NewConfig(zlat), parsurf.NewRNG(seed), parsurf.Workers(p))
		if err != nil {
			return nil, false, nil, err
		}
		d := eng.(*parsurf.DDRSM)
		const steps = 20
		for range steps {
			d.Step()
		}
		interior := (d.Trials() - d.Deferred()) / steps
		boundary := d.Deferred() / steps
		dd = append(dd, ddRow{
			p:        p,
			boundary: boundary,
			tDD:      mm.DDRSMStepTime(interior, boundary, p),
			tPN:      mm.PNDCAStepTime(zpart, p),
		})
	}
	return surface, final[0].Equal(final[1]), dd, nil
}

func runFig7(w io.Writer, opt options) error {
	sides := []int{200, 300, 400, 500, 600, 700, 800, 900, 1000}
	workers := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	checkSide := 100
	if opt.quick {
		sides = []int{200, 600, 1000}
		workers = []int{2, 6, 10}
		checkSide = 50
	}
	surface, same, dd, err := fig7(opt.ctx, sides, workers, checkSide, opt.seed)
	if err != nil {
		return err
	}
	header := []string{"N \\ p"}
	for _, p := range workers {
		header = append(header, fmt.Sprintf("p=%d", p))
	}
	rows := make([][]string, len(sides))
	for si, side := range sides {
		row := []string{fmt.Sprintf("%d", side)}
		for pi := range workers {
			row = append(row, fmt.Sprintf("%.2f", surface[si][pi]))
		}
		rows[si] = row
	}
	fmt.Fprintln(w, "modeled PNDCA speedup (machine constants: 1 µs/trial, 3 ms barrier):")
	fmt.Fprint(w, trace.Table(header, rows))
	fmt.Fprintf(w, "goroutine check (%dx%d Pt(100), 20 steps): 8 workers == sequential: %v\n",
		checkSide, checkSide, same)

	fmt.Fprintln(w, "\ndomain-decomposition RSM (Segers) vs PNDCA, modeled step time at 100x100:")
	rows = rows[:0]
	for _, r := range dd {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.p),
			fmt.Sprintf("%d", r.boundary),
			fmt.Sprintf("%.2f ms", r.tDD*1e3),
			fmt.Sprintf("%.2f ms", r.tPN*1e3),
		})
	}
	fmt.Fprint(w, trace.Table([]string{"p", "boundary trials/step", "T_DDRSM", "T_PNDCA"}, rows))
	return nil
}
