package main

import (
	"fmt"
	"io"

	"parsurf"
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
	"parsurf/internal/stats"
	"parsurf/internal/trace"
)

// ratioRow is one engine's criterion-2 outcome: how many replicates
// ended in each reaction type, and the chi-square statistic against
// k_i/K with its degrees of freedom and verdict (alpha 0.01).
type ratioRow struct {
	engine string
	counts []int
	chi2   float64
	dof    int
	pass   bool
}

// criteriaResult holds the Segers criteria of §6: the KS statistic,
// p-value and verdict (alpha 0.01) of RSM's waiting times against
// Exp(k) (criterion 1), and one type-ratio row per exact DMC engine
// (criterion 2).
type criteriaResult struct {
	ksD, ksP float64
	ksPass   bool
	ratio    []ratioRow
}

// criteria checks the two Segers correctness criteria of §6 for each
// exact DMC engine over reps replicates: exponential waiting times
// (Kolmogorov–Smirnov test) and rate-ratio type selection (chi-square
// test).
func criteria(reps int, seed uint64) (*criteriaResult, error) {
	res := &criteriaResult{}

	// Criterion 1: on a single-site system with one reaction of rate k,
	// the time to the reaction is Exp(k).
	lat := lattice.New(1, 1)
	m1 := &model.Model{
		Species: []string{"*", "A"},
		Types: []model.ReactionType{{
			Name: "ads", Rate: 2.5,
			Triples: []model.Triple{{Off: lattice.Vec{}, Src: 0, Tgt: 1}},
		}},
	}
	cm1, err := model.Compile(m1, lat)
	if err != nil {
		return nil, err
	}
	src := rng.New(seed)
	waits := make([]float64, reps)
	for i := range waits {
		cfg := lattice.NewConfig(lat)
		eng, err := parsurf.NewEngine("rsm", cm1, cfg, src)
		if err != nil {
			return nil, err
		}
		r := eng.(*parsurf.RSM) // concrete engine for single-trial stepping
		for !r.Trial() {
		}
		waits[i] = r.Time()
	}
	res.ksD, res.ksP = stats.KSExponential(waits, 2.5)
	res.ksPass = res.ksP > 0.01

	// Criterion 2: with competing reactions of rates 1 and 3, the next
	// type follows k_i/K for every engine.
	m2 := &model.Model{
		Species: []string{"*", "A", "B"},
		Types: []model.ReactionType{
			{Name: "adsA", Rate: 1, Triples: []model.Triple{{Off: lattice.Vec{}, Src: 0, Tgt: 1}}},
			{Name: "adsB", Rate: 3, Triples: []model.Triple{{Off: lattice.Vec{}, Src: 0, Tgt: 2}}},
		},
	}
	cm2, err := model.Compile(m2, lat)
	if err != nil {
		return nil, err
	}
	// The exact DMC engines, by registry name — no per-engine
	// constructors needed.
	for _, name := range []string{"rsm", "vssm", "frm"} {
		src := rng.New(seed + 7)
		counts := []int{0, 0}
		for i := 0; i < reps; i++ {
			cfg := lattice.NewConfig(lat)
			sim, err := parsurf.NewEngine(name, cm2, cfg, src)
			if err != nil {
				return nil, err
			}
			for cfg.Get(0) == 0 {
				if !sim.Step() {
					break
				}
			}
			counts[int(cfg.Get(0))-1]++
		}
		chi2, dof, err := stats.ChiSquare(counts, []float64{0.25, 0.75})
		if err != nil {
			return nil, err
		}
		// chi-square critical value at 1 dof, alpha 0.01: 6.63.
		res.ratio = append(res.ratio, ratioRow{engine: name, counts: counts, chi2: chi2, dof: dof, pass: chi2 < 6.63})
	}
	return res, nil
}

func runCriteria(w io.Writer, opt options) error {
	reps := 20000
	if opt.quick {
		reps = 4000
	}
	res, err := criteria(reps, opt.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "criterion 1 (waiting time ~ Exp(k)): RSM, %d replicates\n", reps)
	fmt.Fprintf(w, "  KS statistic %.4f, p-value %.3f  =>  %s\n", res.ksD, res.ksP, verdict(res.ksPass))
	fmt.Fprintf(w, "criterion 2 (type ratio k_i/K = 0.25/0.75): %d replicates per engine\n", reps)
	rows := make([][]string, 0, len(res.ratio))
	for _, r := range res.ratio {
		rows = append(rows, []string{
			r.engine,
			fmt.Sprintf("%.4f", float64(r.counts[0])/float64(reps)),
			fmt.Sprintf("%.4f", float64(r.counts[1])/float64(reps)),
			fmt.Sprintf("%.2f (dof %d)", r.chi2, r.dof),
			verdict(r.pass),
		})
	}
	fmt.Fprint(w, trace.Table([]string{"engine", "P(A)", "P(B)", "chi2", "verdict"}, rows))
	return nil
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
