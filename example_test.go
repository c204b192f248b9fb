package parsurf_test

import (
	"context"
	"fmt"
	"log"

	"parsurf"
)

// Example_quickstart simulates CO oxidation on a 50×50 lattice with
// the Random Selection Method, the paper's reference Dynamic Monte
// Carlo engine. The session wires a periodic lattice (initially
// vacant), the seven-reaction model of Table I and the engine chosen by
// name, all seeded and reproducible.
func Example_quickstart() {
	sess, err := parsurf.NewSession(
		parsurf.WithModel(parsurf.NewZGBModel(parsurf.DefaultZGBRates())),
		parsurf.WithLattice(50, 50),
		parsurf.WithEngine("rsm"),
		parsurf.WithSeed(2003),
	)
	if err != nil {
		log.Fatal(err)
	}
	obs := parsurf.ObserverFunc(func(t float64, cfg *parsurf.Config) {
		fmt.Printf("t=%4.1f  CO %.3f  O %.3f\n", t, cfg.Coverage(1), cfg.Coverage(2))
	})
	if _, err := sess.Run(context.Background(), parsurf.Until(20), parsurf.SampleEvery(5, obs)); err != nil {
		log.Fatal(err)
	}
	cfg := sess.Config()
	rsm := sess.Engine().(*parsurf.RSM) // concrete engine for its trial counter
	fmt.Printf("final: CO %.3f, O %.3f, vacant %.3f after %.1f time units (%d trials)\n",
		cfg.Coverage(1), cfg.Coverage(2), cfg.Coverage(0), rsm.Time(), rsm.Trials())
	// Output:
	// t= 0.0  CO 0.000  O 0.000
	// t= 5.0  CO 0.116  O 0.375
	// t=10.0  CO 0.085  O 0.435
	// t=15.0  CO 0.072  O 0.452
	// t=20.0  CO 0.072  O 0.446
	// final: CO 0.072, O 0.446, vacant 0.481 after 20.0 time units (2057500 trials)
}

// Example_conflicts measures the Fig. 2 problem. Dense particles
// diffusing under a fully synchronous CA update collide: two particles
// propose hops into the same vacancy, and the conflict rate grows with
// density. A partitioned update (PNDCA) cannot conflict, by
// construction.
func Example_conflicts() {
	ctx := context.Background()
	m := parsurf.NewDiffusionModel(1)
	run := func(density float64, engine string, opts ...parsurf.EngineOption) (*parsurf.Session, bool) {
		sess, err := parsurf.NewSession(
			parsurf.WithModel(m),
			parsurf.WithLattice(64, 64),
			parsurf.WithEngine(engine, opts...),
			parsurf.WithSeed(8),
			parsurf.WithInit(parsurf.RandomInit(1-density, density)),
		)
		if err != nil {
			log.Fatal(err)
		}
		before := sess.Config().Count(1)
		if _, err := sess.Run(ctx, parsurf.ForSteps(100)); err != nil {
			log.Fatal(err)
		}
		return sess, sess.Config().Count(1) == before
	}

	fmt.Println("synchronous NDCA: density, proposals, conflicts, conflict rate, conserved")
	for _, density := range []float64{0.1, 0.3, 0.5, 0.7} {
		sess, conserved := run(density, "syncndca")
		sync := sess.Engine().(*parsurf.SyncNDCA) // conflict counters
		fmt.Printf("%.1f %6d %5d %4.1f%% %v\n", density, sync.Proposed(), sync.Conflicts(),
			100*float64(sync.Conflicts())/float64(sync.Proposed()), conserved)
	}

	// The same workload under PNDCA over the named modular-colouring
	// partition, resolved against the session's model and lattice.
	sess, conserved := run(0.5, "pndca", parsurf.PartitionNamed("modular:16"), parsurf.Workers(4))
	p := sess.Engine().(*parsurf.PNDCA)
	fmt.Printf("PNDCA over %d chunks, 4 workers: %d reactions, conserved: %v\n",
		p.Partition().NumChunks(), p.Successes(), conserved)
	st := parsurf.Clusters(sess.Config(), 1)
	fmt.Printf("final particle clusters: %d clusters, largest %d, mean size %.1f\n",
		st.Clusters, st.Largest, st.MeanSize)
	// Output:
	// synchronous NDCA: density, proposals, conflicts, conflict rate, conserved
	// 0.1  39598  1767  4.5% true
	// 0.3  90980 10615 11.7% true
	// 0.5 107571 19709 18.3% true
	// 0.7  87974 21375 24.3% true
	// PNDCA over 8 chunks, 4 workers: 139554 reactions, conserved: true
	// final particle clusters: 229 clusters, largest 345, mean size 8.9
}
