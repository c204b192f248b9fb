package dmc

import (
	"math"
	"testing"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
)

func zgbSetup(t testing.TB, l int, seed uint64) (*model.Compiled, *lattice.Config, *rng.Source) {
	t.Helper()
	m := model.NewZGB(model.DefaultZGBRates())
	lat := lattice.NewSquare(l)
	cm, err := model.Compile(m, lat)
	if err != nil {
		t.Fatal(err)
	}
	return cm, lattice.NewConfig(lat), rng.New(seed)
}

func TestRSMBasics(t *testing.T) {
	cm, cfg, src := zgbSetup(t, 16, 1)
	r := NewRSM(cm, cfg, src)
	if r.Time() != 0 {
		t.Fatal("fresh engine has nonzero time")
	}
	r.Step()
	if r.Trials() != uint64(cm.Lat.N()) {
		t.Fatalf("Step made %d trials, want %d", r.Trials(), cm.Lat.N())
	}
	if r.MCSteps() != 1 {
		t.Fatalf("MCSteps = %v", r.MCSteps())
	}
	if r.Time() <= 0 {
		t.Fatal("time did not advance")
	}
	if r.Successes() == 0 {
		t.Fatal("no reaction fired on an empty lattice in a full MC step")
	}
	// Coverages remain a partition of the lattice.
	sum := cfg.Coverage(model.ZGBEmpty) + cfg.Coverage(model.ZGBCO) + cfg.Coverage(model.ZGBO)
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("coverages sum to %v", sum)
	}
}

func TestRSMDeterministicTime(t *testing.T) {
	cm, cfg, src := zgbSetup(t, 8, 2)
	r := NewRSM(cm, cfg, src)
	r.DeterministicTime = true
	r.Step()
	want := 1.0 / cm.K // N trials of 1/(N·K) each
	if math.Abs(r.Time()-want) > 1e-9 {
		t.Fatalf("deterministic time %v, want %v", r.Time(), want)
	}
}

func TestRSMTimeMeanMatchesDeterministic(t *testing.T) {
	// Averaged over many trials the exponential clock advances at the
	// same speed as the deterministic one.
	cm, cfg, src := zgbSetup(t, 32, 3)
	r := NewRSM(cm, cfg, src)
	for i := 0; i < 50; i++ {
		r.Step()
	}
	want := 50.0 / cm.K
	if math.Abs(r.Time()-want)/want > 0.05 {
		t.Fatalf("stochastic clock %v, deterministic expectation %v", r.Time(), want)
	}
}

func TestNewEnginesPanicOnLatticeMismatch(t *testing.T) {
	cm, _, src := zgbSetup(t, 8, 4)
	other := lattice.NewConfig(lattice.NewSquare(9))
	for name, f := range map[string]func(){
		"rsm":  func() { NewRSM(cm, other, src) },
		"vssm": func() { NewVSSM(cm, other, src) },
		"frm":  func() { NewFRM(cm, other, src) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted mismatched lattice", name)
				}
			}()
			f()
		}()
	}
}

func TestVSSMInitialEnabledSets(t *testing.T) {
	cm, cfg, src := zgbSetup(t, 8, 5)
	v := NewVSSM(cm, cfg, src)
	// Empty lattice: CO adsorption enabled everywhere, O2 both
	// orientations everywhere, CO+O nowhere.
	n := cm.Lat.N()
	if got := v.EnabledCount(0); got != n {
		t.Fatalf("RtCO enabled at %d sites, want %d", got, n)
	}
	if got := v.EnabledCount(1); got != n {
		t.Fatalf("RtO2(0) enabled at %d sites, want %d", got, n)
	}
	for rt := 3; rt < 7; rt++ {
		if got := v.EnabledCount(rt); got != 0 {
			t.Fatalf("RtCO+O enabled at %d sites on empty lattice", got)
		}
	}
	wantRate := float64(n)*cm.Types[0].Rate + 2*float64(n)*cm.Types[1].Rate
	if math.Abs(v.TotalRate()-wantRate) > 1e-6 {
		t.Fatalf("TotalRate %v, want %v", v.TotalRate(), wantRate)
	}
}

func TestVSSMConsistencyAfterRun(t *testing.T) {
	cm, cfg, src := zgbSetup(t, 12, 6)
	v := NewVSSM(cm, cfg, src)
	for i := 0; i < 5000; i++ {
		if !v.Step() {
			break
		}
	}
	if rt, s, ok := v.CheckConsistency(); !ok {
		t.Fatalf("enabled sets inconsistent at rt=%d s=%d", rt, s)
	}
	if v.Events() == 0 {
		t.Fatal("no events executed")
	}
}

func TestVSSMConsistencyPtCO(t *testing.T) {
	m := model.NewPtCO(model.DefaultPtCORates())
	lat := lattice.NewSquare(10)
	cm := model.MustCompile(m, lat)
	cfg := lattice.NewConfig(lat)
	v := NewVSSM(cm, cfg, rng.New(7))
	for i := 0; i < 3000; i++ {
		if !v.Step() {
			break
		}
	}
	if rt, s, ok := v.CheckConsistency(); !ok {
		t.Fatalf("PtCO enabled sets inconsistent at rt=%d s=%d", rt, s)
	}
}

func TestFRMConsistencyAfterRun(t *testing.T) {
	cm, cfg, src := zgbSetup(t, 12, 8)
	f := NewFRM(cm, cfg, src)
	for i := 0; i < 5000; i++ {
		if !f.Step() {
			break
		}
	}
	if rt, s, ok := f.CheckConsistency(); !ok {
		t.Fatalf("event queue inconsistent at rt=%d s=%d", rt, s)
	}
}

func TestFRMTimeMonotone(t *testing.T) {
	cm, cfg, src := zgbSetup(t, 8, 9)
	f := NewFRM(cm, cfg, src)
	prev := 0.0
	for i := 0; i < 2000; i++ {
		if !f.Step() {
			break
		}
		if f.Time() < prev {
			t.Fatalf("time went backwards: %v < %v", f.Time(), prev)
		}
		prev = f.Time()
	}
}

// Absorbing state: pure adsorption fills the lattice and stops.
func adsorptionOnly() *model.Model {
	return &model.Model{
		Species: []string{"*", "A"},
		Types: []model.ReactionType{{
			Name: "ads", Rate: 1,
			Triples: []model.Triple{{Off: lattice.Vec{}, Src: 0, Tgt: 1}},
		}},
	}
}

func TestVSSMAbsorbing(t *testing.T) {
	lat := lattice.NewSquare(6)
	cm := model.MustCompile(adsorptionOnly(), lat)
	cfg := lattice.NewConfig(lat)
	v := NewVSSM(cm, cfg, rng.New(10))
	steps := 0
	for v.Step() {
		steps++
		if steps > lat.N()+1 {
			t.Fatal("more events than sites for pure adsorption")
		}
	}
	if steps != lat.N() {
		t.Fatalf("absorbed after %d events, want %d", steps, lat.N())
	}
	if cfg.Count(1) != lat.N() {
		t.Fatal("lattice not full at absorption")
	}
	tAbs := v.Time()
	if v.Step() {
		t.Fatal("Step returned true in absorbing state")
	}
	if v.Time() != tAbs {
		t.Fatal("absorbing Step advanced time")
	}
}

func TestFRMAbsorbing(t *testing.T) {
	lat := lattice.NewSquare(6)
	cm := model.MustCompile(adsorptionOnly(), lat)
	cfg := lattice.NewConfig(lat)
	f := NewFRM(cm, cfg, rng.New(11))
	steps := 0
	for f.Step() {
		steps++
	}
	if steps != lat.N() {
		t.Fatalf("absorbed after %d events, want %d", steps, lat.N())
	}
	if f.Pending() != 0 {
		t.Fatal("events pending in absorbing state")
	}
}

// Segers correctness criterion 1: the waiting time of a reaction with
// rate k is Exp(k). A 1×1 lattice with a single adsorption type makes
// the first RSM success time exactly the reaction's waiting time.
func TestSegersCriterionWaitingTime(t *testing.T) {
	lat := lattice.New(1, 1)
	m := &model.Model{
		Species: []string{"*", "A"},
		Types: []model.ReactionType{{
			Name: "ads", Rate: 2.5,
			Triples: []model.Triple{{Off: lattice.Vec{}, Src: 0, Tgt: 1}},
		}},
	}
	cm := model.MustCompile(m, lat)
	src := rng.New(12)
	const reps = 20000
	var sum, sumSq float64
	for i := 0; i < reps; i++ {
		cfg := lattice.NewConfig(lat)
		r := NewRSM(cm, cfg, src)
		for !r.Trial() {
		}
		w := r.Time()
		sum += w
		sumSq += w * w
	}
	mean := sum / reps
	variance := sumSq/reps - mean*mean
	wantMean := 1 / 2.5
	// Exponential: variance = mean².
	if math.Abs(mean-wantMean)/wantMean > 0.03 {
		t.Fatalf("waiting-time mean %v, want %v", mean, wantMean)
	}
	if math.Abs(variance-wantMean*wantMean)/(wantMean*wantMean) > 0.06 {
		t.Fatalf("waiting-time variance %v, want %v (exponential)", variance, wantMean*wantMean)
	}
}

// Segers correctness criterion 2: among competing enabled reactions the
// next executed type follows the ratio of the rate constants.
func TestSegersCriterionRateRatio(t *testing.T) {
	lat := lattice.New(1, 1)
	m := &model.Model{
		Species: []string{"*", "A", "B"},
		Types: []model.ReactionType{
			{Name: "adsA", Rate: 1, Triples: []model.Triple{{Off: lattice.Vec{}, Src: 0, Tgt: 1}}},
			{Name: "adsB", Rate: 3, Triples: []model.Triple{{Off: lattice.Vec{}, Src: 0, Tgt: 2}}},
		},
	}
	cm := model.MustCompile(m, lat)
	for name, makeSim := range map[string]func(*lattice.Config, *rng.Source) Simulator{
		"rsm":  func(c *lattice.Config, s *rng.Source) Simulator { return NewRSM(cm, c, s) },
		"vssm": func(c *lattice.Config, s *rng.Source) Simulator { return NewVSSM(cm, c, s) },
		"frm":  func(c *lattice.Config, s *rng.Source) Simulator { return NewFRM(cm, c, s) },
	} {
		src := rng.New(13)
		const reps = 20000
		countB := 0
		for i := 0; i < reps; i++ {
			cfg := lattice.NewConfig(lat)
			sim := makeSim(cfg, src)
			for cfg.Get(0) == 0 {
				if !sim.Step() {
					break
				}
			}
			if cfg.Get(0) == 2 {
				countB++
			}
		}
		p := float64(countB) / reps
		if math.Abs(p-0.75) > 0.015 {
			t.Errorf("%s: B fraction %v, want 0.75 (= kB/(kA+kB))", name, p)
		}
	}
}

// The three exact methods must agree on steady-state coverages. The
// model is an equilibrium lattice gas (monomer and dimer
// adsorption/desorption) whose steady state is unique, so the comparison
// is seed-independent; interacting models like A+B annihilation coarsen
// into seed-dependent domains and are unsuitable here.
func TestEnginesAgreeOnSteadyState(t *testing.T) {
	m := &model.Model{
		Species: []string{"*", "A"},
		Types: []model.ReactionType{
			{Name: "ads", Rate: 1, Triples: []model.Triple{{Off: lattice.Vec{}, Src: 0, Tgt: 1}}},
			{Name: "des", Rate: 0.7, Triples: []model.Triple{{Off: lattice.Vec{}, Src: 1, Tgt: 0}}},
			{Name: "ads2", Rate: 0.4, Triples: []model.Triple{
				{Off: lattice.Vec{}, Src: 0, Tgt: 1}, {Off: lattice.Vec{DX: 1}, Src: 0, Tgt: 1}}},
			{Name: "des2", Rate: 0.4, Triples: []model.Triple{
				{Off: lattice.Vec{}, Src: 1, Tgt: 0}, {Off: lattice.Vec{DX: 1}, Src: 1, Tgt: 0}}},
		},
	}
	lat := lattice.NewSquare(24)
	cm := model.MustCompile(m, lat)

	steady := func(sim Simulator, cfg *lattice.Config) float64 {
		runUntil := func(t float64) {
			for sim.Time() < t && sim.Step() {
			}
		}
		runUntil(30)
		// Average A coverage over a window.
		total, samples := 0.0, 0
		for t := 30.0; t <= 60; t += 1 {
			runUntil(t)
			total += cfg.Coverage(1)
			samples++
		}
		return total / float64(samples)
	}

	cfg1 := lattice.NewConfig(lat)
	a1 := steady(NewRSM(cm, cfg1, rng.New(21)), cfg1)
	cfg2 := lattice.NewConfig(lat)
	a2 := steady(NewVSSM(cm, cfg2, rng.New(22)), cfg2)
	cfg3 := lattice.NewConfig(lat)
	a3 := steady(NewFRM(cm, cfg3, rng.New(23)), cfg3)

	if math.Abs(a1-a2) > 0.04 || math.Abs(a1-a3) > 0.04 {
		t.Fatalf("steady-state disagreement: RSM %v, VSSM %v, FRM %v", a1, a2, a3)
	}
}

func BenchmarkRSMTrialZGB(b *testing.B) {
	cm, cfg, src := zgbSetup(b, 128, 1)
	r := NewRSM(cm, cfg, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Trial()
	}
}

func BenchmarkVSSMEventZGB(b *testing.B) {
	cm, cfg, src := zgbSetup(b, 128, 1)
	v := NewVSSM(cm, cfg, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !v.Step() {
			b.Fatal("absorbed")
		}
	}
}

func BenchmarkFRMEventZGB(b *testing.B) {
	cm, cfg, src := zgbSetup(b, 128, 1)
	f := NewFRM(cm, cfg, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Step() {
			b.Fatal("absorbed")
		}
	}
}
