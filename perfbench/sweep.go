package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"parsurf"
	"parsurf/internal/ensemble"
)

// fixedJob is the job sweep-direct runs in-process and surfd-fleet
// submits to a coordinator: ZGB at two CO adsorption rates under each of
// the two event-driven DMC engines, replicas per variant, sampled on one
// grid.
type fixedJob struct {
	specs        []*parsurf.SessionSpec
	replicas     int
	until, every float64
}

func newFixedJob(seed uint64, sz sizes) (*fixedJob, error) {
	j := &fixedJob{replicas: sz.fixedReplicas, until: sz.fixedUntil, every: sz.fixedEvery}
	for _, eng := range []string{"vssm", "frm"} {
		for _, kCO := range []float64{0.50, 0.55} {
			spec, err := parsurf.NewSpec(
				parsurf.WithModelPreset("zgb", map[string]float64{"kCO": kCO}),
				parsurf.WithLattice(sz.fixedSide, sz.fixedSide),
				parsurf.WithEngine(eng),
				parsurf.WithSeed(seed+uint64(len(j.specs))))
			if err != nil {
				return nil, err
			}
			j.specs = append(j.specs, spec)
		}
	}
	return j, nil
}

func (j *fixedJob) totalReplicas() int { return len(j.specs) * j.replicas }

// runSweepDirect runs the fixed job through parsurf.RunSweep, bypassing
// store, HTTP and fleet, with workers = GOMAXPROCS = 1.
func runSweepDirect(ctx context.Context, e *env) (*result, error) {
	defer oneCore()()
	workers := runtime.GOMAXPROCS(0)
	res := newResult()
	var fj *fixedJob
	setup, err := timeSetups(e, func() (func(), error) {
		var err error
		if fj, err = newFixedJob(e.seed, e.size); err != nil {
			return nil, err
		}
		for _, spec := range fj.specs {
			if _, err := spec.Session(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	var ref []*parsurf.Ensemble
	var times []float64
	before := heapAlloc()
	start := time.Now()
	for i := 0; i < e.size.fixedMinOps || time.Since(start) < e.budget; i++ {
		t := time.Now()
		ens, err := parsurf.RunSweep(ctx, fj.specs, fj.replicas, workers, fj.until, fj.every)
		d := time.Since(t).Seconds()
		res.op(err)
		if err != nil {
			continue
		}
		times = append(times, d)
		if ref == nil {
			ref = ens
		} else {
			same := len(ens) == len(ref)
			for v := 0; same && v < len(ens); v++ {
				same = sameMoments(ref[v], seriesRows(ens[v].Mean), seriesRows(ens[v].Std))
			}
			res.check(same, "sweep %d differs from sweep 0", i)
		}
	}
	allocMB := float64(heapAlloc()-before) / 1e6
	if ref == nil {
		return nil, fmt.Errorf("no sweep completed")
	}
	res.layer["alloc.mb_per_op"] = allocMB / float64(len(times))
	// Every sweep does identical work, checked against the first.
	ttr := fastest(times)
	res.e2e["time_to_result_s"] = ttr
	res.e2e["throughput_per_s"] = float64(fj.totalReplicas()) / ttr
	e.logf("untraced: %d sweeps of %d replicas, fastest decile %.4f s (min %.4f, median %.4f, max %.4f)",
		len(times), fj.totalReplicas(), ttr, quantile(times, 0), median(times), quantile(times, 1))

	if !e.trace {
		// The same moments, re-derived for one variant through the shard
		// primitive and an index-ordered accumulator.
		v := int(e.seed % uint64(len(fj.specs)))
		mean, std, err := decompose(ctx, fj, v, workers, nil)
		res.check(err == nil && sameMoments(ref[v], mean, std),
			"variant %d: RunSweep moments differ from RunReplicaRange + Accumulator (err %v)", v, err)
		return res, nil
	}

	spinNs, capacity := calibrateHost(e.procs)
	res.layer["host.spin_ns"], res.layer["host.parallel_capacity"] = spinNs, capacity
	res.layer["ensemble.reset_ns_per_replica"] = measureReset(fj) * 1e9

	tr := newTracer()
	tap := &sweepTap{tr: tr}
	var traced []float64
	start = time.Now()
	for i := 0; i < e.size.fixedMinOps || time.Since(start) < e.budget; i++ {
		tap.op = fmt.Sprintf("sweep-%d", i)
		root := tr.now()
		t := time.Now()
		ok := true
		for v := range fj.specs {
			mean, std, err := decompose(ctx, fj, v, workers, tap)
			res.op(err)
			ok = ok && err == nil && sameMoments(ref[v], mean, std)
		}
		traced = append(traced, time.Since(t).Seconds())
		tr.add(span{Name: "sweep", Layer: "other", Depth: depthOp, Start: root, End: tr.now(), Op: tap.op})
		res.check(ok, "traced decomposition %d differs from RunSweep", i)
	}
	res.spans = tr.finish()
	res.layer["trace.overhead"] = median(traced)/median(times) - 1

	ops := float64(len(traced))
	engineNs, sampleNs := map[string]float64{}, 0.0
	steps := map[string]float64{}
	points := 0.0
	for _, s := range res.spans {
		if s.Name != "replica" {
			continue
		}
		eng := fj.specs[s.Attrs["variant"]].EngineName()
		engineNs[eng] += float64(s.Attrs["engine_ns"])
		steps[eng] += float64(s.Attrs["steps"])
		sampleNs += float64(s.Attrs["sample_ns"])
		points += float64(s.Attrs["points"])
	}
	for _, eng := range []string{"vssm", "frm"} {
		res.layer["engine."+eng+".ns_per_event"] = engineNs[eng] / steps[eng]
	}
	totalEngine, totalSteps := engineNs["vssm"]+engineNs["frm"], steps["vssm"]+steps["frm"]
	res.layer["engine.ns_per_step"] = totalEngine / totalSteps
	res.layer["engine.steps_per_op"] = totalSteps / ops
	res.layer["ensemble.sample_ns_per_point"] = sampleNs / points
	res.layer["ensemble.merge_ns_per_replica"] = tap.mergeNs / (ops * float64(fj.totalReplicas()))
	res.layer["ensemble.replicas_per_op"] = float64(fj.totalReplicas())
	shares(e, res.spans, sampleNs/(sampleNs+totalEngine), res)
	e.logf("traced: %d decompositions, median %.4f s; %.0f events per sweep", len(traced), median(traced), totalSteps/ops)
	return res, nil
}

// decompose re-runs one variant of the fixed job as the fleet does: the
// replicas through RunReplicaRange, their rows committed in index order
// through an ensemble accumulator. With a tap it records replica and
// merge spans.
func decompose(ctx context.Context, fj *fixedJob, v, workers int, tap *sweepTap) (mean, std [][]float64, err error) {
	spec := fj.specs[v]
	var opts []parsurf.EnsembleOption
	if tap != nil {
		tap.reps = make([]replicaTap, fj.replicas)
		opts = append(opts, parsurf.ObserveReplicas(tap.observe))
	}
	rows, err := parsurf.RunReplicaRange(ctx, spec, v, 0, fj.replicas, workers, fj.until, fj.every, opts...)
	if err != nil {
		return nil, nil, err
	}
	grid, err := parsurf.NewTimeGrid(fj.until, fj.every)
	if err != nil {
		return nil, nil, err
	}
	acc := ensemble.NewAccumulator(spec.NumSpecies(), grid.Len(), 1)
	for i, row := range rows {
		var t0 int64
		if tap != nil {
			t0 = tap.tr.now()
		}
		if err := acc.Add(ctx, i, row); err != nil {
			return nil, nil, err
		}
		if tap != nil {
			end := tap.tr.now()
			tap.mergeNs += float64(end - t0)
			tap.tr.add(span{Name: "merge", Layer: "merge", Depth: depthClient, Start: t0, End: end, Op: tap.op})
		}
	}
	if tap != nil {
		for i := range tap.reps {
			rt := &tap.reps[i]
			tap.tr.add(span{Name: "replica", Layer: "engine", Depth: depthClient, Start: rt.first, End: rt.last, Op: tap.op,
				Attrs: map[string]int64{"variant": int64(v), "replica": int64(i), "steps": int64(rt.steps),
					"points": int64(rt.points), "engine_ns": rt.engineNs, "sample_ns": rt.sampleNs}})
		}
	}
	mean, std = acc.MeanStd()
	return mean, std, nil
}

// replicaTap is one replica's measurements, written only by the
// replica's goroutine.
type replicaTap struct {
	first, last        int64
	lastSteps, steps   uint64
	engineNs, sampleNs int64
	points             int
	counts             []int
}

// sweepTap splits each replica's run into engine steps and grid
// sampling from outside: it observes every grid point, and the time
// between two observations is the engine's stepping plus one sample,
// whose cost the tap measures by counting the same configuration again.
type sweepTap struct {
	tr      *tracer
	op      string
	reps    []replicaTap
	mergeNs float64
}

func (t *sweepTap) observe(_, replica int, _ float64, sess *parsurf.Session) {
	rt := &t.reps[replica]
	start := t.tr.now()
	rt.counts = sess.Config().CountInto(rt.counts)
	sample := t.tr.now() - start
	steps := sess.Engine().Steps()
	if rt.points == 0 {
		rt.first = start - sample
	} else {
		rt.engineNs += start - rt.last - sample
		rt.steps += steps - rt.lastSteps
	}
	rt.sampleNs += sample
	rt.points++
	rt.lastSteps = steps
	rt.last = t.tr.now()
}

// measureReset times the pooled replica rewind (Session.Reset onto
// replica i's stream) the ensemble runner performs before every replica
// but a worker's first, averaged over the fixed job's replicas.
func measureReset(fj *fixedJob) float64 {
	var total time.Duration
	for _, spec := range fj.specs {
		sess, err := spec.Session()
		if err != nil {
			continue
		}
		var root, stream parsurf.RNG
		reset := func(i int) {
			root.Seed(spec.Seed())
			root.SplitInto(&stream, uint64(i)+1)
			sess.Reset(&stream)
		}
		for i := 0; i < fj.replicas; i++ {
			reset(i)
		}
		t := time.Now()
		for i := 0; i < fj.replicas; i++ {
			reset(i)
		}
		total += time.Since(t)
	}
	return total.Seconds() / float64(fj.totalReplicas())
}

// sameRows reports whether two species × points matrices are
// bit-identical.
func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for sp := range a {
		if len(a[sp]) != len(b[sp]) {
			return false
		}
		for k := range a[sp] {
			if math.Float64bits(a[sp][k]) != math.Float64bits(b[sp][k]) {
				return false
			}
		}
	}
	return true
}

// sameMoments reports whether mean and std are bit-identical to the
// ensemble's series.
func sameMoments(ens *parsurf.Ensemble, mean, std [][]float64) bool {
	return sameRows(seriesRows(ens.Mean), mean) && sameRows(seriesRows(ens.Std), std)
}

func seriesRows(series []*parsurf.Series) [][]float64 {
	out := make([][]float64, len(series))
	for sp, s := range series {
		out[sp] = s.X
	}
	return out
}
