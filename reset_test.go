package parsurf_test

import (
	"context"
	"sync"
	"testing"

	"parsurf"
	"parsurf/internal/goldentrace"
)

// newGoldenEngine builds the named engine over the shared compiled
// model (nil for the model-free ziff) with default options, on a fresh
// configuration, drawing from the given seed.
func newGoldenEngine(t *testing.T, name string, cm *parsurf.Compiled, lat *parsurf.Lattice, seed uint64) parsurf.Engine {
	t.Helper()
	var usedCM *parsurf.Compiled
	if spec, ok := parsurf.LookupEngine(name); !ok {
		t.Fatalf("engine %q not registered", name)
	} else if !spec.ModelFree {
		usedCM = cm
	}
	eng, err := parsurf.NewEngine(name, usedCM, parsurf.NewConfig(lat), parsurf.NewRNG(seed))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return eng
}

// Reset equivalence: for every registered engine, build→run→Reset→run
// must produce fingerprints bit-identical to two independent fresh
// builds — Reset leaves no residue of the first trajectory, and a
// reset engine reproduces a fresh one's draws, clock and configuration
// exactly. One compiled arena is shared by every construction, which
// also pins the arena's immutability across full engine lifecycles.
func TestEngineResetEquivalence(t *testing.T) {
	const seedA, seedB = 12345, 977
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	lat := parsurf.NewSquareLattice(goldentrace.Side)
	cm := parsurf.MustCompile(m, lat)
	for _, name := range parsurf.Engines() {
		steps := goldentrace.StepsFor(name)

		freshA := goldentrace.Fingerprint(newGoldenEngine(t, name, cm, lat, seedA), steps)
		freshB := goldentrace.Fingerprint(newGoldenEngine(t, name, cm, lat, seedB), steps)
		if freshA == freshB {
			t.Fatalf("%s: distinct seeds gave identical fingerprints; test cannot discriminate", name)
		}

		eng := newGoldenEngine(t, name, cm, lat, seedA)
		if got := goldentrace.Fingerprint(eng, steps); got != freshA {
			t.Errorf("%s: first run fingerprint %v, want %v", name, got, freshA)
		}
		eng.Reset(parsurf.NewConfig(lat), parsurf.NewRNG(seedB))
		if got := goldentrace.Fingerprint(eng, steps); got != freshB {
			t.Errorf("%s: post-Reset run fingerprint %v, want fresh-build %v", name, got, freshB)
		}
		// Resetting back to the first stream rewinds completely.
		eng.Reset(parsurf.NewConfig(lat), parsurf.NewRNG(seedA))
		if got := goldentrace.Fingerprint(eng, steps); got != freshA {
			t.Errorf("%s: second Reset fingerprint %v, want %v", name, got, freshA)
		}
		if eng.Steps() != uint64(steps) {
			t.Errorf("%s: Steps() = %d after Reset + %d steps", name, eng.Steps(), steps)
		}
	}
}

// Session.Reset reproduces spec.Session() bit for bit, including the
// init-preset stream: a session that already ran a trajectory rewinds
// to exactly the state a fresh build starts from.
func TestSessionResetEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []parsurf.SessionOption
	}{
		{"vssm+random-init", []parsurf.SessionOption{
			parsurf.WithModelPreset("zgb", nil),
			parsurf.WithLattice(16, 16),
			parsurf.WithEngine("vssm"),
			parsurf.WithSeed(7),
			parsurf.WithInit(parsurf.RandomInit(0.6, 0.2, 0.2)),
		}},
		{"ziff", []parsurf.SessionOption{
			parsurf.WithLattice(16, 16),
			parsurf.WithEngine("ziff", parsurf.COFraction(0.5)),
			parsurf.WithSeed(11),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := parsurf.NewSpec(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := spec.Session()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Run(context.Background(), parsurf.ForSteps(40)); err != nil {
				t.Fatal(err)
			}

			reused, err := spec.Session()
			if err != nil {
				t.Fatal(err)
			}
			// Drive the session somewhere else first, then rewind.
			if _, err := reused.Run(context.Background(), parsurf.ForSteps(13)); err != nil {
				t.Fatal(err)
			}
			reused.Reset(parsurf.NewRNG(spec.Seed()))
			if _, err := reused.Run(context.Background(), parsurf.ForSteps(40)); err != nil {
				t.Fatal(err)
			}

			if !fresh.Config().Equal(reused.Config()) {
				t.Error("reset session configuration differs from fresh build")
			}
			if a, b := fresh.Engine().Time(), reused.Engine().Time(); a != b {
				t.Errorf("reset session clock %v differs from fresh build %v", b, a)
			}
			if fresh.Compiled() != reused.Compiled() && fresh.Compiled() != nil {
				t.Error("sessions from one spec do not share the compiled arena")
			}
		})
	}
}

// Session.Reset is allocation-free for every registered engine at 64²,
// including the init-preset re-draw: the built preset func is cached on
// the spec and the init stream is derived into the session's stable
// storage. This is the per-replica steady-state cost of the pooled
// ensemble path. Model engines reset onto a random ZGB surface; ziff is
// model-free. The warm pass replays the exact seed sequence the
// measurement uses, so enabled sets and event queues have already grown
// to the largest capacity any of these initial surfaces needs: without
// it, a rare surface that enables more instances than any before
// ratchets a capacity and shows up as a fractional allocation.
func TestSessionResetAllocationFree(t *testing.T) {
	const runs = 50
	for _, name := range parsurf.Engines() {
		t.Run(name, func(t *testing.T) {
			opts := []parsurf.SessionOption{
				parsurf.WithLattice(64, 64),
				parsurf.WithEngine(name),
			}
			if es, _ := parsurf.LookupEngine(name); !es.ModelFree {
				opts = append(opts,
					parsurf.WithModelPreset("zgb", nil),
					parsurf.WithInit(parsurf.RandomInit(0.9, 0.05, 0.05)))
			}
			spec, err := parsurf.NewSpec(opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := spec.Session()
			if err != nil {
				t.Fatal(err)
			}
			var src parsurf.RNG
			// Every measured call cycles through seeds 1..runs, which the
			// warm pass has already reset onto.
			for seed := uint64(1); seed <= runs; seed++ {
				src.Seed(seed)
				sess.Reset(&src)
			}
			seed := uint64(0)
			allocs := testing.AllocsPerRun(runs, func() {
				seed = seed%runs + 1
				src.Seed(seed)
				sess.Reset(&src)
			})
			if allocs != 0 {
				t.Errorf("Session.Reset allocates %v objects per call, want 0", allocs)
			}
		})
	}
}

// Every registered engine's Step allocates nothing once warm, at
// NewEngine defaults on ZGB 64². The event engines (vssm, frm) warm for
// 20,000 events so their enabled sets and queues reach working
// capacity; the trial engines sweep the lattice every step and need
// only a few.
func TestEngineStepAllocationFree(t *testing.T) {
	lat := parsurf.NewSquareLattice(64)
	cm := parsurf.MustCompile(parsurf.NewZGBModel(parsurf.DefaultZGBRates()), lat)
	for _, name := range parsurf.Engines() {
		t.Run(name, func(t *testing.T) {
			eng, err := parsurf.NewEngine(name, cm, parsurf.NewConfig(lat), parsurf.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			warm := 20
			if name == "vssm" || name == "frm" {
				warm = 20000
			}
			for i := 0; i < warm; i++ {
				if !eng.Step() {
					t.Fatalf("absorbed during warm-up after %d steps", i)
				}
			}
			if allocs := testing.AllocsPerRun(20, func() { eng.Step() }); allocs != 0 {
				t.Errorf("Step allocates %v objects per call, want 0", allocs)
			}
		})
	}
}

// The ensemble runner pools sessions and rewinds them with Reset; a
// width-1 RunReplicaRange builds its one replica fresh. Both must
// produce bit-identical rows and Mean/Std — the pooled replicas
// reproduce fresh-build trajectories exactly.
func TestEnsemblePooledMatchesFresh(t *testing.T) {
	ctx := context.Background()
	for _, engine := range []string{"vssm", "frm", "ziff"} {
		t.Run(engine, func(t *testing.T) {
			opts := []parsurf.SessionOption{
				parsurf.WithLattice(16, 16),
				parsurf.WithSeed(42),
			}
			if engine == "ziff" {
				opts = append(opts, parsurf.WithEngine(engine, parsurf.COFraction(0.51)))
			} else {
				opts = append(opts,
					parsurf.WithModelPreset("zgb", nil),
					parsurf.WithEngine(engine),
					parsurf.WithInit(parsurf.RandomInit(0.8, 0.1, 0.1)))
			}
			spec, err := parsurf.NewSpec(opts...)
			if err != nil {
				t.Fatal(err)
			}
			// replicas >> workers so every pooled session serves several
			// replica indices through Reset.
			const replicas, workers, until, every = 8, 2, 3, 0.5
			pooled, err := parsurf.RunEnsemble(ctx, spec, replicas, workers, until, every)
			if err != nil {
				t.Fatal(err)
			}
			fresh := freshRows(t, spec, replicas, until, every)
			if !rowsEqual(replicaRows(t, spec, replicas, workers, until, every), fresh) {
				t.Error("pooled replica rows differ from fresh builds")
			}
			if !matchesWelford(pooled, fresh) {
				t.Error("pooled ensemble Mean/Std differ from the fresh-build moments")
			}
		})
	}
}

// Many replicas — across RunEnsemble workers and direct goroutines —
// read one spec's shared compiled arena concurrently while engines
// with incremental bookkeeping (VSSM's enabled sets, FRM's event
// queue) step through full lifecycles. Run under -race this proves the
// arena is never written after Compile.
func TestSharedCompiledArenaRace(t *testing.T) {
	spec, err := parsurf.NewSpec(
		parsurf.WithModelPreset("zgb", nil),
		parsurf.WithLattice(20, 20),
		parsurf.WithEngine("vssm"),
		parsurf.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess, err := spec.Session()
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < 3; r++ {
				sess.Reset(parsurf.NewRNG(uint64(100*g + r)))
				if _, err := sess.Run(context.Background(), parsurf.ForSteps(200)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := parsurf.RunEnsemble(context.Background(), spec, 8, 4, 2, 0.5); err != nil {
		t.Fatal(err)
	}
}
