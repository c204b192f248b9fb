package dmc

import (
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
)

// RSM is the Random Selection Method of §3 of the paper:
//
//	repeat
//	  1. select a site s randomly with probability 1/N;
//	  2. select a reaction type i with probability k_i/K;
//	  3. check if the reaction type is enabled at s;
//	  4. if it is, execute it;
//	  5. advance the time by drawing from 1−exp(−NKt);
//	until simulation time has elapsed
//
// One Monte Carlo step (MCS) is N trials.
type RSM struct {
	cm    *model.Compiled
	cfg   *lattice.Config
	cells []lattice.Species
	src   *rng.Source

	time      float64
	steps     uint64
	trials    uint64
	successes uint64

	// DeterministicTime replaces the Exp(N·K) increment of step 5 with
	// its mean 1/(N·K), the time-discretised reading of RSM the paper
	// mentions. Default false (exponential increments).
	DeterministicTime bool
}

// NewRSM returns an RSM engine over the compiled model, operating on cfg
// in place, drawing randomness from src.
func NewRSM(cm *model.Compiled, cfg *lattice.Config, src *rng.Source) *RSM {
	if !cfg.Lattice().SameShape(cm.Lat) {
		panic("dmc: configuration lattice differs from compiled lattice")
	}
	return &RSM{cm: cm, cfg: cfg, cells: cfg.Cells(), src: src}
}

// Reset rewinds the engine to a fresh start over cfg, drawing from src
// (see registry.Engine.Reset): clock and counters return to zero, so a
// reset RSM reproduces a freshly constructed one bit for bit without
// reallocating.
func (r *RSM) Reset(cfg *lattice.Config, src *rng.Source) {
	if !cfg.Lattice().SameShape(r.cm.Lat) {
		panic("dmc: Reset configuration lattice differs from compiled lattice")
	}
	r.cfg, r.cells, r.src = cfg, cfg.Cells(), src
	r.time = 0
	r.steps, r.trials, r.successes = 0, 0, 0
}

// Trial performs one RSM trial (steps 1–5) and reports whether a
// reaction fired.
func (r *RSM) Trial() bool {
	n := r.cm.Lat.N()
	s := r.src.Intn(n)
	rt := r.cm.PickType(r.src.Float64())
	fired := r.cm.TryExecute(r.cells, rt, s)
	r.advance(n)
	r.trials++
	if fired {
		r.successes++
	}
	return fired
}

func (r *RSM) advance(n int) {
	nk := float64(n) * r.cm.K
	if r.DeterministicTime {
		r.time += 1 / nk
	} else {
		r.time += r.src.Exp(nk)
	}
}

// Step performs one MC step (N trials). It always reports true: RSM has
// no absorbing detection — a poisoned lattice simply stops producing
// successful trials.
//
//surflint:hotpath
func (r *RSM) Step() bool {
	n := r.cm.Lat.N()
	for i := 0; i < n; i++ {
		r.Trial()
	}
	r.steps++
	return true
}

// Time returns the simulated time.
func (r *RSM) Time() float64 { return r.time }

// Config returns the live configuration.
func (r *RSM) Config() *lattice.Config { return r.cfg }

// Trials returns the number of trials attempted so far.
func (r *RSM) Trials() uint64 { return r.trials }

// Successes returns the number of trials that executed a reaction.
func (r *RSM) Successes() uint64 { return r.successes }

// MCSteps returns the elapsed Monte Carlo steps (trials / N).
func (r *RSM) MCSteps() float64 {
	return float64(r.trials) / float64(r.cm.Lat.N())
}
