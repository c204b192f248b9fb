package main

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"parsurf"
	"parsurf/internal/trace"
	"parsurf/internal/ziff"
)

// ziffSize is one size of the ZGB phase-diagram sweep: an l×l lattice,
// equil MCS of relaxation then measure MCS of averaging, replicas per
// CO fraction, and the step of the CO-fraction grid over [0.32, 0.60].
type ziffSize struct {
	l, equil, measure, replicas int
	step                        float64
}

// ziffSweep sweeps the classic ZGB phase diagram as an ensemble
// statement — the paper's claims are means over stochastic replicas —
// through the parameter-sweep API: one spec per CO fraction y, a
// replica ensemble per spec, all (y, replica) jobs flattened onto a
// single worker pool. Replica-level measurements (CO2 production at
// the window boundaries, poisoning) stream through a per-replica
// observer, so nothing retains whole replica series. It returns one
// phase point per y; ziff.Transitions reads the kinetic phase
// transitions off them (§1's "experimental data for the simulation of
// Ziff model"; literature: y1 ≈ 0.39, y2 ≈ 0.525).
func ziffSweep(ctx context.Context, z ziffSize, seed uint64) ([]ziff.PhasePoint, error) {
	var ys []float64
	for y := 0.32; y <= 0.60+1e-9; y += z.step {
		ys = append(ys, y)
	}

	specs := make([]*parsurf.SessionSpec, len(ys))
	for i, y := range ys {
		spec, err := parsurf.NewSpec(
			parsurf.WithLattice(z.l, z.l),
			parsurf.WithEngine("ziff", parsurf.COFraction(y)),
			parsurf.WithSeed(seed+uint64(i)),
		)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}

	// Per-(variant, replica) CO2 ledger sampled on the shared TimeGrid;
	// each slot is written only by its own replica's goroutine.
	ledgers := make([][]ziff.ReplicaLedger, len(ys))
	for v := range ledgers {
		ledgers[v] = make([]ziff.ReplicaLedger, z.replicas)
	}
	until, every := float64(z.equil+z.measure), 1.0
	ensembles, err := parsurf.RunSweep(ctx, specs, z.replicas, runtime.NumCPU(), until, every,
		parsurf.ObserveReplicas(func(variant, replica int, t float64, sess *parsurf.Session) {
			ledgers[variant][replica].Record(sess.Engine().(*parsurf.ZiffZGB), t, z.equil)
		}))
	if err != nil {
		return nil, err
	}

	points := make([]ziff.PhasePoint, len(ys))
	for v, ens := range ensembles {
		points[v] = ziff.EnsemblePoint(ys[v], ens.Mean, z.equil, z.measure, float64(z.l*z.l), ledgers[v])
	}
	return points, nil
}

func runZiff(w io.Writer, opt options) error {
	z := ziffSize{l: 64, equil: 400, measure: 150, replicas: 4, step: 0.01}
	if opt.quick {
		z = ziffSize{l: 32, equil: 200, measure: 60, replicas: 2, step: 0.02}
	}
	points, err := ziffSweep(opt.ctx, z, opt.seed)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		state := "reactive"
		if p.Poisoned {
			if p.CoCO > p.CoO {
				state = "CO-poisoned"
			} else {
				state = "O-poisoned"
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", p.Y),
			fmt.Sprintf("%.3f", p.CoCO),
			fmt.Sprintf("%.3f", p.CoO),
			fmt.Sprintf("%.4f", p.Rate),
			state,
		})
	}
	fmt.Fprintf(w, "ensemble of %d replicas per y point:\n", z.replicas)
	fmt.Fprint(w, trace.Table([]string{"y_CO", "θ_CO", "θ_O", "R_CO2", "state"}, rows))
	if y1, y2, ok := ziff.Transitions(points); ok {
		fmt.Fprintf(w, "estimated transitions: y1 = %.3f (lit. 0.39), y2 = %.3f (lit. 0.525)\n", y1, y2)
	} else {
		fmt.Fprintln(w, "transitions not bracketed")
	}
	return nil
}
