package main

import (
	"fmt"

	"parsurf"
	"parsurf/internal/trace"
)

// runFig7 regenerates the speedup surface T(1,N)/T(p,N) of Fig. 7 on
// the simulated parallel machine (internal/machine, standing in for the
// paper's parallel hardware), validates the real goroutine executor's
// bit-identity, and contrasts the Segers-style domain decomposition
// overhead.
func runFig7(opt options) error {
	mm := parsurf.DefaultMachine()
	sides := []int{200, 300, 400, 500, 600, 700, 800, 900, 1000}
	workers := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	if opt.quick {
		sides = []int{200, 600, 1000}
		workers = []int{2, 6, 10}
	}
	surface, err := mm.SpeedupSurface(sides, workers)
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
	fmt.Println("modeled PNDCA speedup (machine constants: 1 µs/trial, 3 ms barrier):")
	fmt.Print(trace.Table(header, rows))

	// Fidelity: the goroutine-parallel sweep is bit-identical to the
	// sequential one, so the modeled concurrency reflects a real
	// execution.
	side := 50
	if !opt.quick {
		side = 100
	}
	m := parsurf.NewPtCOModel(parsurf.DefaultPtCORates())
	run := func(w int) (*parsurf.Config, error) {
		sess, err := parsurf.NewSession(
			parsurf.WithModel(m),
			parsurf.WithLattice(side, side),
			parsurf.WithEngine("pndca", parsurf.Workers(w)),
			parsurf.WithSeed(opt.seed),
		)
		if err != nil {
			return nil, err
		}
		if _, err := sess.Run(opt.ctx, parsurf.ForSteps(20)); err != nil {
			return nil, err
		}
		return sess.Config(), nil
	}
	seq, err := run(1)
	if err != nil {
		return err
	}
	par, err := run(8)
	if err != nil {
		return err
	}
	fmt.Printf("goroutine check (%dx%d Pt(100), 20 steps): 8 workers == sequential: %v\n",
		side, side, seq.Equal(par))

	// Segers baseline: measure the boundary communication volume of the
	// domain decomposition and model its step time next to PNDCA's.
	zm := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	zlat := parsurf.NewSquareLattice(100)
	zcm, err := parsurf.Compile(zm, zlat)
	if err != nil {
		return err
	}
	fmt.Println("\ndomain-decomposition RSM (Segers) vs PNDCA, modeled step time at 100x100:")
	zpart, err := parsurf.VonNeumann5(zlat)
	if err != nil {
		return err
	}
	rows = rows[:0]
	for _, p := range []int{2, 4, 8} {
		cfg := parsurf.NewConfig(zlat)
		eng, err := parsurf.NewEngine("ddrsm", zcm, cfg, parsurf.NewRNG(opt.seed), parsurf.Workers(p))
		if err != nil {
			return err
		}
		d := eng.(*parsurf.DDRSM)
		steps := 20
		for i := 0; i < steps; i++ {
			d.Step()
		}
		interior := (d.Trials() - d.Deferred()) / uint64(steps)
		boundary := d.Deferred() / uint64(steps)
		tDD := mm.DDRSMStepTime(interior, boundary, p)
		tPN := mm.PNDCAStepTime(zpart, p)
		rows = append(rows, []string{
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%d", boundary),
			fmt.Sprintf("%.2f ms", tDD*1e3),
			fmt.Sprintf("%.2f ms", tPN*1e3),
		})
	}
	fmt.Print(trace.Table([]string{"p", "boundary trials/step", "T_DDRSM", "T_PNDCA"}, rows))
	return nil
}
