package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"parsurf"
)

// caConfig is one engine configuration of the ca-scaling workload.
type caConfig struct {
	engine  string
	workers int // 0: a serial engine that takes no workers option
	sess    *parsurf.Session
	src     parsurf.RNG
	times   []float64       // timed window durations of the current pass, seconds
	final   *parsurf.Config // state after the warm-up window, the reference of every later window
}

func (c *caConfig) label() string {
	if c.workers == 0 {
		return c.engine
	}
	return fmt.Sprintf("%s/p%d", c.engine, c.workers)
}

// caEngines are the partitioned engines the workload times at one worker
// and at GOMAXPROCS workers; rsm and lpndca run serially as baselines.
var caEngines = []string{"pndca", "typepart", "ddrsm"}

// buildCA compiles the ZGB model on side² and builds one session per
// configuration: the set-up a user of the engines pays.
func buildCA(seed uint64, side, procs int) ([]*caConfig, error) {
	var cfgs []*caConfig
	for _, e := range caEngines {
		cfgs = append(cfgs, &caConfig{engine: e, workers: 1}, &caConfig{engine: e, workers: procs})
	}
	cfgs = append(cfgs, &caConfig{engine: "rsm"}, &caConfig{engine: "lpndca"})
	for _, c := range cfgs {
		var opts []parsurf.EngineOption
		if c.workers > 0 {
			opts = append(opts, parsurf.Workers(c.workers))
		}
		spec, err := parsurf.NewSpec(parsurf.WithModelPreset("zgb", nil),
			parsurf.WithLattice(side, side), parsurf.WithEngine(c.engine, opts...), parsurf.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		if c.sess, err = spec.Session(); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// runCAScaling times the paper's partitioned CA sweep. One window runs
// a configuration for caSteps MC steps from the seed's initial state, so
// every window of a configuration does identical work and windows at one
// worker and at GOMAXPROCS workers can be compared directly. Rounds visit
// every configuration once, alternating direction.
func runCAScaling(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	var cfgs []*caConfig
	setup, err := timeSetups(e, func() (func(), error) {
		var err error
		cfgs, err = buildCA(e.seed, e.size.caSide, e.procs)
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	// Warm-up round: caches, pages and each configuration's reference state.
	for _, c := range cfgs {
		c.reset(e.seed)
		if err := c.run(e.size.caSteps); err != nil {
			return nil, err
		}
		c.final = c.sess.Config().Clone()
	}
	before := heapAlloc()
	rounds := caPass(e, cfgs, res, nil)
	res.layer["alloc.mb_per_op"] = float64(heapAlloc()-before) / 1e6 / float64(len(rounds))

	byLabel := map[string]*caConfig{}
	for _, c := range cfgs {
		byLabel[c.label()] = c
	}
	pmax := func(name string) *caConfig { return byLabel[fmt.Sprintf("%s/p%d", name, e.procs)] }
	// One operation: the partitioned engines' windows at one worker. The
	// GOMAXPROCS windows only feed the per-layer speedups: how much a
	// second worker gains depends on whether the host's neighbours leave
	// a second core free, which changes from one second to the next.
	opTime := func() float64 {
		t := 0.0
		for _, name := range caEngines {
			t += byLabel[name+"/p1"].windowTime()
		}
		return t
	}
	n := float64(e.size.caSide * e.size.caSide)
	trials := float64(len(caEngines)*e.size.caSteps) * n
	ttr := opTime()
	res.e2e["time_to_result_s"] = ttr
	res.e2e["throughput_per_s"] = trials / ttr
	e.logf("untraced: %d rounds; pndca+typepart+ddrsm at p1: %.4f s for %.0f trials (%d windows each)",
		len(rounds), ttr, trials, len(cfgs[0].times))
	if !e.trace {
		return res, nil
	}

	spinNs, capacity := calibrateHost(e.procs)
	res.layer["host.spin_ns"], res.layer["host.parallel_capacity"] = spinNs, capacity
	tr := newTracer()
	traced := caPass(e, cfgs, res, tr)
	res.spans = tr.finish()
	res.layer["trace.overhead"] = median(traced)/median(rounds) - 1
	shares(e, res.spans, 0, res)

	perTrial := func(c *caConfig) float64 { return c.windowTime() / float64(e.size.caSteps) / n }
	e.logf("%-9s %12s %12s %8s %10s %10s", "engine", "ns/trial p1", "ns/trial p"+fmt.Sprint(e.procs), "speedup", "predicted", "fitted")
	for _, name := range caEngines {
		p1 := byLabel[name+"/p1"]
		res.layer["engine."+name+".ns_per_trial.p1"] = perTrial(p1) * 1e9
		res.layer["engine."+name+".ns_per_trial.pmax"] = perTrial(pmax(name)) * 1e9
		res.layer["engine."+name+".speedup"] = p1.windowTime() / pmax(name).windowTime()
	}
	for _, name := range []string{"rsm", "lpndca"} {
		res.layer["engine."+name+".ns_per_trial.p1"] = perTrial(byLabel[name]) * 1e9
	}
	res.layer["engine.ns_per_step"] = opTime() / trials * 1e9
	res.layer["engine.steps_per_op"] = trials
	if err := fitMachine(e, byLabel, res); err != nil {
		return nil, err
	}
	return res, nil
}

// windowTime is the configuration's window time. Every window does
// identical work, checked after each round.
func (c *caConfig) windowTime() float64 { return fastest(c.times) }

// reset rewinds the session to the seed's initial state.
func (c *caConfig) reset(seed uint64) {
	c.src.Seed(seed)
	c.sess.Reset(&c.src)
}

// run advances the session by steps MC steps.
func (c *caConfig) run(steps int) error {
	eng := c.sess.Engine()
	for k := 0; k < steps; k++ {
		if !eng.Step() {
			return fmt.Errorf("%s stopped after %d of %d steps", c.label(), k, steps)
		}
	}
	return nil
}

// caPass runs timed rounds until the budget is spent and at least
// caMinRounds ran, checking after every round that the partitioned
// engines agree across worker counts and that every configuration
// reproduced its reference state. It returns the round durations.
func caPass(e *env, cfgs []*caConfig, res *result, tr *tracer) []float64 {
	for _, c := range cfgs {
		c.times = c.times[:0]
	}
	var rounds []float64
	start := time.Now()
	for r := 0; r < e.size.caMinRounds || time.Since(start) < e.budget; r++ {
		order := append([]*caConfig(nil), cfgs...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		op := fmt.Sprintf("round-%d", r)
		roundStart := time.Now()
		var rootStart int64
		if tr != nil {
			rootStart = tr.now()
		}
		for _, c := range order {
			c.reset(e.seed)
			var s0 int64
			if tr != nil {
				s0 = tr.now()
			}
			t := time.Now()
			err := c.run(e.size.caSteps)
			d := time.Since(t)
			res.op(err)
			c.times = append(c.times, d.Seconds())
			if tr != nil {
				tr.add(span{Name: "window " + c.label(), Layer: "engine", Depth: depthClient,
					Start: s0, End: tr.now(), Op: op,
					Attrs: map[string]int64{"mc_steps": int64(e.size.caSteps)}})
			}
		}
		rounds = append(rounds, time.Since(roundStart).Seconds())
		if tr != nil {
			tr.add(span{Name: "round", Layer: "other", Depth: depthOp, Start: rootStart, End: tr.now(), Op: op})
		}
		for i := 0; i+1 < 2*len(caEngines); i += 2 {
			p1, pm := cfgs[i], cfgs[i+1]
			if p1.engine != "ddrsm" {
				res.check(p1.sess.Config().Equal(pm.sess.Config()),
					"%s and %s final configurations differ", p1.label(), pm.label())
			}
		}
		for _, c := range cfgs {
			res.check(c.sess.Config().Equal(c.final), "%s did not reproduce its reference state", c.label())
		}
	}
	return rounds
}

// fitMachine compares the measured speedups with internal/machine's
// predictions, first with its default hardware constants, then with
// constants fitted to this run: the trial cost from the one-worker
// windows, the per-chunk synchronisation cost from the GOMAXPROCS ones.
func fitMachine(e *env, byLabel map[string]*caConfig, res *result) error {
	p, steps := e.procs, float64(e.size.caSteps)
	n := e.size.caSide * e.size.caSide
	stepTime := func(c *caConfig) float64 { return c.windowTime() / steps }
	tTrial := func(name string) float64 { return stepTime(byLabel[name+"/p1"]) / float64(n) }
	pmax := func(name string) *caConfig { return byLabel[fmt.Sprintf("%s/p%d", name, p)] }

	pndca, ok := pmax("pndca").sess.Engine().(*parsurf.PNDCA)
	if !ok {
		return fmt.Errorf("pndca session runs %T", pmax("pndca").sess.Engine())
	}
	board, err := parsurf.Checkerboard(pmax("typepart").sess.Lattice())
	if err != nil {
		return err
	}
	// A typepart step sweeps one checkerboard chunk per type subset: the
	// work of one PNDCA step over the checkerboard.
	parts := map[string]*parsurf.Partition{"pndca": pndca.Partition(), "typepart": board}

	// Per-chunk synchronisation cost: what the GOMAXPROCS step takes
	// beyond its slowest worker's trials, pooled over both sweeps.
	residual, chunks := 0.0, 0
	for _, name := range []string{"pndca", "typepart"} {
		compute := 0.0
		for _, chunk := range parts[name].Chunks {
			compute += math.Ceil(float64(len(chunk))/float64(p)) * tTrial(name)
		}
		residual += stepTime(pmax(name)) - compute
		chunks += len(parts[name].Chunks)
	}
	tSync := 0.0
	if p > 1 {
		tSync = residual / float64(chunks)
	}
	res.layer["machine.fit.t_trial_ns"] = (tTrial("pndca") + tTrial("typepart")) / 2 * 1e9
	res.layer["machine.fit.t_sync_us"] = tSync * 1e6

	def := parsurf.DefaultMachine()
	for _, name := range []string{"pndca", "typepart"} {
		fit := parsurf.MachineModel{TTrial: tTrial(name), TBarrier: tSync}
		res.layer["machine."+name+".predicted_speedup"] = def.PNDCASpeedup(parts[name], p)
		res.layer["machine."+name+".fitted_speedup"] = fit.PNDCASpeedup(parts[name], p)
	}

	// ddrsm: the model takes the measured interior and boundary trial
	// counts per step at each strip count.
	counts := func(c *caConfig) (interior, boundary uint64, err error) {
		d, ok := c.sess.Engine().(*parsurf.DDRSM)
		if !ok {
			return 0, 0, fmt.Errorf("ddrsm session runs %T", c.sess.Engine())
		}
		s := uint64(e.size.caSteps)
		return (d.Trials() - d.Deferred()) / s, d.Deferred() / s, nil
	}
	in1, b1, err := counts(byLabel["ddrsm/p1"])
	if err != nil {
		return err
	}
	inP, bP, err := counts(pmax("ddrsm"))
	if err != nil {
		return err
	}
	res.layer["machine.ddrsm.predicted_speedup"] = def.DDRSMStepTime(in1, b1, 1) / def.DDRSMStepTime(inP, bP, p)
	fit := parsurf.MachineModel{TTrial: tTrial("ddrsm"), TBarrier: tSync}
	if p > 1 && bP > 0 {
		// Whatever the strip step takes beyond the model's compute and
		// barriers is charged to the boundary trials as message cost.
		fit.TMsg = max(0, (stepTime(pmax("ddrsm"))-fit.DDRSMStepTime(inP, bP, p))/float64(bP))
	}
	res.layer["machine.ddrsm.fitted_speedup"] = fit.DDRSMStepTime(in1, b1, 1) / fit.DDRSMStepTime(inP, bP, p)

	for _, name := range caEngines {
		e.logf("%-9s %12.2f %12.2f %8.3f %10.3f %10.3f", name,
			res.layer["engine."+name+".ns_per_trial.p1"], res.layer["engine."+name+".ns_per_trial.pmax"],
			res.layer["engine."+name+".speedup"], res.layer["machine."+name+".predicted_speedup"],
			res.layer["machine."+name+".fitted_speedup"])
	}
	e.logf("fitted machine: t_trial %.2f ns, t_sync %.2f us per chunk sweep at p%d",
		res.layer["machine.fit.t_trial_ns"], res.layer["machine.fit.t_sync_us"], p)
	if p < 3 {
		e.logf("note: with worker counts 1 and %d only, TBarrier and TSpawn cannot be separated; t_sync is their per-chunk sum TBarrier + %d·TSpawn (needs at least 3 worker counts)", p, p)
	}
	return nil
}
