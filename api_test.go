package parsurf_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"parsurf"
	"parsurf/internal/goldentrace"
	"parsurf/internal/registry"
	"parsurf/internal/sim"
	"parsurf/internal/stats"
)

// wantEngines is the engine set the registry must cover (the paper's
// full comparison).
var wantEngines = []string{
	"rsm", "vssm", "frm", "ndca", "syncndca", "bca",
	"pndca", "lpndca", "typepart", "ddrsm", "ziff",
}

func TestRegistryCoversAllEngines(t *testing.T) {
	have := map[string]bool{}
	for _, name := range parsurf.Engines() {
		have[name] = true
	}
	for _, name := range wantEngines {
		if !have[name] {
			t.Errorf("engine %q not registered (have %v)", name, parsurf.Engines())
		}
	}
}

// Round trip: every registered engine constructs through NewEngine,
// steps, and reports a consistent identity.
func TestRegistryRoundTrip(t *testing.T) {
	lat := parsurf.NewSquareLattice(20)
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	cm := parsurf.MustCompile(m, lat)
	for _, name := range parsurf.Engines() {
		eng, err := parsurf.NewEngine(name, cm, parsurf.NewConfig(lat), parsurf.NewRNG(7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if eng.Name() != name {
			t.Errorf("%s: Name() = %q", name, eng.Name())
		}
		if eng.TotalRate() <= 0 {
			t.Errorf("%s: TotalRate() = %v", name, eng.TotalRate())
		}
		for i := 0; i < 3; i++ {
			if !eng.Step() {
				t.Fatalf("%s: could not step", name)
			}
		}
		if eng.Steps() != 3 {
			t.Errorf("%s: Steps() = %d after 3 steps", name, eng.Steps())
		}
		if eng.Time() <= 0 {
			t.Errorf("%s: time did not advance", name)
		}
	}
}

// Every exported field of an engine is a knob a spec can turn: it maps
// to an option bit the engine's registry entry accepts. A field no spec
// reaches would be a behaviour only hand-built engines could select.
func TestEngineFieldsReachableFromSpec(t *testing.T) {
	optionOf := map[string]registry.OptionSet{
		"Workers":           parsurf.OptWorkers,
		"L":                 parsurf.OptL,
		"Strategy":          parsurf.OptStrategy,
		"DeterministicTime": parsurf.OptDeterministicTime,
		"Y":                 parsurf.OptY,
	}
	for _, name := range parsurf.Engines() {
		es, _ := parsurf.LookupEngine(name)
		sess, err := checkpointSpec(t, name).Session()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		typ := reflect.TypeOf(sess.Engine()).Elem()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if opt, ok := optionOf[f.Name]; !ok || es.Accepts&opt == 0 {
				t.Errorf("%s: exported field %s.%s maps to no option the spec accepts", name, typ, f.Name)
			}
		}
	}
}

// Model-free engines work without a compiled model; model-bound ones
// reject the omission.
func TestRegistryModelFree(t *testing.T) {
	lat := parsurf.NewSquareLattice(16)
	eng, err := parsurf.NewEngine("ziff", nil, parsurf.NewConfig(lat), parsurf.NewRNG(1),
		parsurf.COFraction(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Step() {
		t.Fatal("ziff could not step")
	}
	if _, err := parsurf.NewEngine("rsm", nil, parsurf.NewConfig(lat), parsurf.NewRNG(1)); err == nil {
		t.Fatal("rsm without a model should fail")
	}
}

func TestRegistryOptionValidation(t *testing.T) {
	lat := parsurf.NewSquareLattice(20)
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	cm := parsurf.MustCompile(m, lat)
	cases := []struct {
		name   string
		engine string
		opts   []parsurf.EngineOption
		substr string
	}{
		{"unknown engine", "nope", nil, "unknown engine"},
		{"rsm rejects L", "rsm", []parsurf.EngineOption{parsurf.Trials(5)}, "does not accept"},
		{"vssm rejects workers", "vssm", []parsurf.EngineOption{parsurf.Workers(4)}, "does not accept"},
		{"lpndca bad strategy", "lpndca", []parsurf.EngineOption{parsurf.StrategyName("bogus")}, "strategy"},
		{"ziff bad y", "ziff", []parsurf.EngineOption{parsurf.COFraction(1.5)}, "outside"},
	}
	for _, tc := range cases {
		_, err := parsurf.NewEngine(tc.engine, cm, parsurf.NewConfig(lat), parsurf.NewRNG(1), tc.opts...)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.substr)
		}
	}
}

// coverageObserver appends per-species coverages to series at every
// sample, the way the Session observers do.
func coverageObserver(series []*stats.Series) parsurf.Observer {
	for i := range series {
		series[i] = &stats.Series{}
	}
	return parsurf.ObserverFunc(func(t float64, cfg *parsurf.Config) {
		counts := cfg.CountAll(len(series))
		n := float64(cfg.Lattice().N())
		for sp := range series {
			series[sp].Append(t, float64(counts[sp])/n)
		}
	})
}

func seriesEqual(a, b []*stats.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].T) != len(b[i].T) {
			return false
		}
		for j := range a[i].T {
			if a[i].T[j] != b[i].T[j] || a[i].X[j] != b[i].X[j] {
				return false
			}
		}
	}
	return true
}

// A Session reproduces its engine's direct construction bit for bit:
// for every registered engine, NewEngine over the session's compiled
// model, a fresh configuration and NewRNG(seed) yields identical
// coverage series.
func TestSessionMatchesDirectConstructors(t *testing.T) {
	const side, seed = 20, 99
	const dt, tEnd = 0.5, 5.0
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	for _, name := range parsurf.Engines() {
		opts := []parsurf.SessionOption{
			parsurf.WithLattice(side, side),
			parsurf.WithEngine(name),
			parsurf.WithSeed(seed),
		}
		if spec, _ := parsurf.LookupEngine(name); !spec.ModelFree {
			opts = append(opts, parsurf.WithModel(m))
		}
		sess, err := parsurf.NewSession(opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		numSpecies := sess.NumSpecies()
		got := make([]*stats.Series, numSpecies)
		if _, err := sess.Run(context.Background(), parsurf.Until(tEnd), parsurf.SampleEvery(dt, coverageObserver(got))); err != nil {
			t.Fatalf("%s session run: %v", name, err)
		}

		eng := newEngine(t, name, sess.Compiled(), sess.Lattice(), seed)
		want := make([]*stats.Series, numSpecies)
		if _, _, err := sim.RunContext(context.Background(), eng, dt, tEnd, coverageObserver(want)); err != nil {
			t.Fatalf("%s direct run: %v", name, err)
		}
		if len(want[0].T) < 2 || !seriesEqual(want, got) {
			t.Errorf("%s: session series differ from NewEngine's", name)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	if _, err := parsurf.NewSession(parsurf.WithModel(m)); err == nil {
		t.Error("session without engine should fail")
	}
	if _, err := parsurf.NewSession(parsurf.WithEngine("rsm")); err == nil {
		t.Error("rsm session without model should fail")
	}
	if _, err := parsurf.NewSession(parsurf.WithModel(m), parsurf.WithEngine("rsm"), parsurf.WithLattice(0, 5)); err == nil {
		t.Error("degenerate lattice should fail")
	}
	sess, err := parsurf.NewSession(parsurf.WithModel(m), parsurf.WithEngine("rsm"), parsurf.WithLattice(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background()); err == nil {
		t.Error("Run without Until/ForSteps should fail")
	}
	if _, err := sess.Run(context.Background(), parsurf.Until(1), parsurf.ForSteps(3)); err == nil {
		t.Error("Run with both Until and ForSteps should fail")
	}
	// A non-positive sample interval is an error, as it is for
	// RunEnsemble, not a run that silently takes no samples.
	for _, dt := range []float64{0, -1} {
		calls := 0
		obs := parsurf.ObserverFunc(func(float64, *parsurf.Config) { calls++ })
		st, err := sess.Run(context.Background(), parsurf.Until(2), parsurf.SampleEvery(dt, obs))
		if err == nil || st.Steps != 0 || calls != 0 {
			t.Errorf("SampleEvery(%v): err %v after %d steps and %d samples, want an error before any step", dt, err, st.Steps, calls)
		}
	}
}

func TestSessionContextCancellation(t *testing.T) {
	sess, err := parsurf.NewSession(
		parsurf.WithModel(parsurf.NewZGBModel(parsurf.DefaultZGBRates())),
		parsurf.WithLattice(20, 20),
		parsurf.WithEngine("rsm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Run(ctx, parsurf.Until(1e9)); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func zgbEnsembleSpec(t testing.TB) *parsurf.SessionSpec {
	t.Helper()
	spec, err := parsurf.NewSpec(
		parsurf.WithLattice(24, 24),
		parsurf.WithEngine("ziff", parsurf.COFraction(0.51)),
		parsurf.WithSeed(42),
	)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// RunEnsemble is invariant under the worker count: replica i always
// draws from the same split stream, so only the wall clock changes.
func TestEnsembleWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	spec := zgbEnsembleSpec(t)
	const replicas, until, every = 6, 10, 1
	e1, err := parsurf.RunEnsemble(ctx, spec, replicas, 1, until, every)
	if err != nil {
		t.Fatal(err)
	}
	e4, err := parsurf.RunEnsemble(ctx, spec, replicas, 4, until, every)
	if err != nil {
		t.Fatal(err)
	}
	r1 := replicaRows(t, spec, replicas, 1, until, every)
	r4 := replicaRows(t, spec, replicas, 4, until, every)
	for i := range r1 {
		if !rowsEqual(r1[i:i+1], r4[i:i+1]) {
			t.Errorf("replica %d differs between 1 and 4 workers", i)
		}
	}
	if !seriesEqual(e1.Mean, e4.Mean) || !seriesEqual(e1.Std, e4.Std) {
		t.Error("merged series differ between 1 and 4 workers")
	}
}

// Replicas are independent: distinct split streams give distinct
// trajectories, and the merged mean lies within the replica envelope.
func TestEnsembleReplicaIndependence(t *testing.T) {
	spec := zgbEnsembleSpec(t)
	ens, err := parsurf.RunEnsemble(context.Background(), spec, 4, 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := replicaRows(t, spec, 4, 2, 10, 1)
	if rowsEqual(rows[0:1], rows[1:2]) {
		t.Error("replicas 0 and 1 produced identical trajectories")
	}
	// CO coverage mean at the final grid point must lie within the
	// replica min/max envelope.
	co := 1
	last := len(ens.Mean[co].X) - 1
	lo, hi := 1.0, 0.0
	for _, row := range rows {
		v := row[co][last]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if mean := ens.Mean[co].X[last]; mean < lo || mean > hi {
		t.Errorf("ensemble mean %.4f outside replica envelope [%.4f, %.4f]", mean, lo, hi)
	}
}

func TestEnsembleValidation(t *testing.T) {
	spec := zgbEnsembleSpec(t)
	ctx := context.Background()
	if _, err := parsurf.RunEnsemble(ctx, nil, 2, 1, 1, 1); err == nil {
		t.Error("nil spec should fail")
	}
	if _, err := parsurf.RunEnsemble(ctx, spec, 0, 1, 1, 1); err == nil {
		t.Error("zero replicas should fail")
	}
	if _, err := parsurf.RunEnsemble(ctx, spec, 2, 1, 0, 1); err == nil {
		t.Error("zero horizon should fail")
	}
}

// sampleTimes runs a fresh RSM session on a side² ZGB lattice until
// tEnd, sampling every dt, and returns the sample times.
func sampleTimes(t *testing.T, side int, seed uint64, dt, tEnd float64) ([]float64, parsurf.RunStats, error) {
	t.Helper()
	sess, err := parsurf.NewSession(
		parsurf.WithModel(parsurf.NewZGBModel(parsurf.DefaultZGBRates())),
		parsurf.WithLattice(side, side),
		parsurf.WithEngine("rsm"),
		parsurf.WithSeed(seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	obs := parsurf.ObserverFunc(func(tm float64, _ *parsurf.Config) { times = append(times, tm) })
	st, err := sess.Run(context.Background(), parsurf.Until(tEnd), parsurf.SampleEvery(dt, obs))
	return times, st, err
}

// The final sample lands on tEnd exactly even when tEnd is off the dt
// grid (an accumulated-sum loop once dropped the tail).
func TestSampleTakesFinalSampleAtTEnd(t *testing.T) {
	const dt, tEnd = 0.25, 1.1
	times, st, err := sampleTimes(t, 12, 3, dt, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) == 0 {
		t.Fatal("no samples")
	}
	if last := times[len(times)-1]; last < tEnd {
		t.Fatalf("run tail dropped: last sample at %v < tEnd %v", last, tEnd)
	}
	if st.Time < tEnd {
		t.Fatalf("simulation stopped at %v before tEnd %v", st.Time, tEnd)
	}
	// On-grid horizons take no duplicate final sample.
	times, _, err = sampleTimes(t, 12, 3, 0.25, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 5 { // t = 0, 0.25, 0.5, 0.75, 1.0
		t.Fatalf("on-grid sampling took %d samples, want 5", len(times))
	}
}

// Float drift: dt=0.1 accumulates to 99.99999999999986 < 100, so the
// last grid sample already covers tEnd; the tail branch must not
// observe a second time at the identical clock value.
func TestSampleNoDuplicateOnGridDrift(t *testing.T) {
	times, _, err := sampleTimes(t, 8, 3, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(times); i++ {
		if times[i] == times[i-1] {
			t.Fatalf("duplicate sample at t=%v (index %d)", times[i], i)
		}
	}
	if n := len(times); n != 1001 {
		t.Fatalf("got %d samples, want 1001", n)
	}
}

func TestSample(t *testing.T) {
	times, st, err := sampleTimes(t, 8, 31, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) < 10 || st.Samples != len(times) {
		t.Fatalf("run recorded %d points, reported %d", len(times), st.Samples)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("sample times not monotone")
		}
	}
}

// A degenerate sampling schedule — a zero dt, or one too small to
// advance the clock's floats — is an error before any step, not an
// empty series.
func TestSampleRejectsDegenerateDt(t *testing.T) {
	for _, dt := range []float64{1e-300, 0} {
		times, st, err := sampleTimes(t, 8, 3, dt, 1e3)
		if err == nil || st.Steps != 0 || len(times) != 0 {
			t.Errorf("dt=%v: err %v after %d steps and %d samples, want an error before any step", dt, err, st.Steps, len(times))
		}
	}
}

// goldenTraces are {configuration, clock} FNV-64a fingerprints after
// every step of a fixed-seed ZGB run per engine (goldentrace.Trace).
// The configurations are those of the implementation before the
// hot-loop flattening, which the flattened fast paths reproduce bit for
// bit. The clock halves were re-captured when the ziggurat exponential
// sampler replaced inversion; frm, which orders its events by clock, is
// the one engine whose configuration half moved with them. Regenerate
// with cmd/goldengen, and only on purpose.
var goldenTraces = map[string]goldentrace.Trace{
	"bca":      {Config: 0x30f49e25f09867c4, Clock: 0xbef144e681462c44},
	"ddrsm":    {Config: 0xe7da61fd21be9811, Clock: 0xcd23b4aaa4db1e67},
	"frm":      {Config: 0x51057e26038cbaec, Clock: 0x5a870f70a556eecd},
	"lpndca":   {Config: 0x2965ee672d9e8f63, Clock: 0xbef144e681462c44},
	"ndca":     {Config: 0x0cf468051cf887e2, Clock: 0xb216384c1fece1df},
	"pndca":    {Config: 0x4b777d7df7a27d90, Clock: 0x675d10bb5aa396d9},
	"rsm":      {Config: 0xe674186f92911257, Clock: 0xbef144e681462c44},
	"syncndca": {Config: 0x783d8bb9ecfe09c2, Clock: 0xd19194e07aebed27},
	"typepart": {Config: 0x8ec2d7152d9d6025, Clock: 0x140371b6f91f1e43},
	"vssm":     {Config: 0x2c8b6202c194195d, Clock: 0x096885d882cded62},
	"ziff":     {Config: 0x41d3090787a55941, Clock: 0x600cfd6dc163ec0e},
}

// Every engine must reproduce, bit for bit, its pinned trajectory for
// the same seed: identical configurations after every step and
// identical clock values down to the last float64 bit. The run
// parameters and the hash live in internal/goldentrace, shared with
// cmd/goldengen (which regenerates the table when a change
// intentionally alters trajectories).
func TestGoldenTracesBitIdentical(t *testing.T) {
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	for _, name := range parsurf.Engines() {
		want, ok := goldenTraces[name]
		if !ok {
			t.Errorf("engine %q has no golden trace; run cmd/goldengen and add it", name)
			continue
		}
		lat := parsurf.NewSquareLattice(goldentrace.Side)
		cm := parsurf.MustCompile(m, lat)
		eng, err := parsurf.NewEngine(name, cm, parsurf.NewConfig(lat), parsurf.NewRNG(goldentrace.Seed))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := goldentrace.Fingerprint(eng, goldentrace.StepsFor(name))
		if got.Config != want.Config {
			t.Errorf("engine %q configuration fingerprint 0x%016x, want golden 0x%016x — trajectory changed",
				name, got.Config, want.Config)
		}
		if got.Clock != want.Clock {
			t.Errorf("engine %q clock fingerprint 0x%016x, want golden 0x%016x — clock changed",
				name, got.Clock, want.Clock)
		}
	}
}
