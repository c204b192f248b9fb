package stats

import (
	"math"
	"testing"
	"testing/quick"

	"parsurf/internal/rng"
)

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.N() != 0 {
		t.Fatal("zero value not neutral")
	}
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		w.Add(x)
	}
	if w.N() != 8 || math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean %v", w.Mean())
	}
	// Unbiased variance of the data set is 32/7.
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var %v", w.Var())
	}
	if math.Abs(w.Std()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("std %v", w.Std())
	}
}

func TestMeanVariance(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean")
	}
	xs := []float64{1, 2, 3}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if v, ref := w.Var(), twoPassVar(xs); math.Abs(v-1) > 1e-12 || math.Abs(ref-1) > 1e-12 {
		t.Fatalf("Welford variance %v, two-pass %v, want 1", v, ref)
	}
}

// twoPassVar is the textbook reference for Welford: the mean first,
// then Σ(x−mean)²/(n−1).
func twoPassVar(xs []float64) float64 {
	mean := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return ss / float64(len(xs)-1)
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MinMax(empty) did not panic")
		}
	}()
	MinMax(nil)
}

func TestSeriesAtInterpolates(t *testing.T) {
	s := &Series{}
	s.Append(0, 0)
	s.Append(2, 4)
	s.Append(4, 0)
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 0}, {1, 2}, {2, 4}, {3, 2}, {4, 0}, {9, 0},
	}
	for _, c := range cases {
		if got := s.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSeriesAppendPanicsOnBackwardsTime(t *testing.T) {
	s := &Series{}
	s.Append(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Append(0.5, 0)
}

func TestSeriesWindow(t *testing.T) {
	s := &Series{}
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*i))
	}
	w := s.Window(2.5, 6.5)
	if w.Len() != 4 || w.T[0] != 3 || w.T[3] != 6 {
		t.Fatalf("Window = %+v", w)
	}
}

func TestResample(t *testing.T) {
	s := &Series{}
	s.Append(0, 0)
	s.Append(10, 10)
	xs := s.Resample(0, 10, 11)
	for i, x := range xs {
		if math.Abs(x-float64(i)) > 1e-12 {
			t.Fatalf("Resample[%d] = %v", i, x)
		}
	}
}

func TestRMSD(t *testing.T) {
	a := &Series{}
	b := &Series{}
	for i := 0; i <= 100; i++ {
		tt := float64(i) / 10
		a.Append(tt, math.Sin(tt))
		b.Append(tt, math.Sin(tt)+0.5)
	}
	if d := RMSD(a, a, 0, 10, 200); d > 1e-12 {
		t.Fatalf("self-RMSD = %v", d)
	}
	if d := RMSD(a, b, 0, 10, 200); math.Abs(d-0.5) > 1e-6 {
		t.Fatalf("offset RMSD = %v, want 0.5", d)
	}
}

func TestAutocorrelationSine(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / 40)
	}
	acf := Autocorrelation(xs, 100)
	if math.Abs(acf[0]-1) > 1e-12 {
		t.Fatalf("acf[0] = %v", acf[0])
	}
	// The period-40 signal must correlate strongly at lag 40 and
	// anti-correlate at lag 20.
	if acf[40] < 0.8 {
		t.Fatalf("acf[40] = %v", acf[40])
	}
	if acf[20] > -0.8 {
		t.Fatalf("acf[20] = %v", acf[20])
	}
}

func TestAutocorrelationConstant(t *testing.T) {
	acf := Autocorrelation([]float64{3, 3, 3, 3}, 2)
	if acf[0] != 1 || acf[1] != 0 {
		t.Fatalf("constant acf = %v", acf)
	}
}

func TestDetectOscillationSine(t *testing.T) {
	s := &Series{}
	for i := 0; i <= 2000; i++ {
		tt := float64(i) * 0.1
		s.Append(tt, 0.4+0.3*math.Sin(2*math.Pi*tt/25))
	}
	osc, ok := DetectOscillation(s, 1000, 0.2)
	if !ok {
		t.Fatal("sine not detected")
	}
	if math.Abs(osc.Period-25)/25 > 0.1 {
		t.Fatalf("period %v, want ~25", osc.Period)
	}
	if osc.Strength < 0.8 {
		t.Fatalf("strength %v", osc.Strength)
	}
	if math.Abs(osc.Amplitude-0.3) > 0.02 {
		t.Fatalf("amplitude %v, want ~0.3", osc.Amplitude)
	}
}

func TestDetectOscillationNoise(t *testing.T) {
	src := rng.New(5)
	s := &Series{}
	for i := 0; i <= 2000; i++ {
		s.Append(float64(i)*0.1, src.Float64())
	}
	if osc, ok := DetectOscillation(s, 1000, 0.3); ok {
		t.Fatalf("oscillation %v detected in white noise", osc)
	}
}

func TestDetectOscillationDampedVsSustained(t *testing.T) {
	sustained := &Series{}
	damped := &Series{}
	for i := 0; i <= 3000; i++ {
		tt := float64(i) * 0.1
		sustained.Append(tt, math.Sin(2*math.Pi*tt/30))
		damped.Append(tt, math.Exp(-tt/20)*math.Sin(2*math.Pi*tt/30))
	}
	s1, ok1 := DetectOscillation(sustained, 1500, 0.2)
	_, ok2 := DetectOscillation(damped, 1500, 0.2)
	if !ok1 {
		t.Fatal("sustained oscillation missed")
	}
	// The damped signal either fails detection or scores much weaker.
	if ok2 {
		d2, _ := DetectOscillation(damped, 1500, 0.0)
		if d2.Strength > s1.Strength {
			t.Fatalf("damped strength %v >= sustained %v", d2.Strength, s1.Strength)
		}
	}
}

func TestKSExponentialAcceptsExponential(t *testing.T) {
	src := rng.New(6)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = src.Exp(2)
	}
	_, p := KSExponential(xs, 2)
	if p < 0.01 {
		t.Fatalf("true exponential rejected: p = %v", p)
	}
}

func TestKSExponentialRejectsUniform(t *testing.T) {
	src := rng.New(7)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = src.Float64()
	}
	_, p := KSExponential(xs, 2)
	if p > 0.001 {
		t.Fatalf("uniform sample accepted as exponential: p = %v", p)
	}
}

func TestKSExponentialRejectsWrongRate(t *testing.T) {
	src := rng.New(8)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = src.Exp(1)
	}
	_, p := KSExponential(xs, 3)
	if p > 0.001 {
		t.Fatalf("rate-1 sample accepted as rate-3: p = %v", p)
	}
}

func TestKSEmpty(t *testing.T) {
	if _, p := KSExponential(nil, 1); p != 1 {
		t.Fatal("empty sample should be trivially accepted")
	}
}

func TestChiSquareAgainstProbs(t *testing.T) {
	chi2, dof, err := ChiSquare([]int{25, 75}, []float64{0.25, 0.75})
	if err != nil || dof != 1 || chi2 > 1e-12 {
		t.Fatalf("chi2=%v dof=%d err=%v", chi2, dof, err)
	}
	if _, _, err := ChiSquare([]int{1}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := ChiSquare([]int{1, 1}, []float64{0, 1}); err == nil {
		t.Fatal("observation in zero-probability bucket accepted")
	}
}

// Property: Welford matches the two-pass formulas.
func TestQuickWelfordMatchesTwoPass(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%100) + 2
		src := rng.New(seed)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = src.Float64()*20 - 10
			w.Add(xs[i])
		}
		if math.Abs(w.Mean()-Mean(xs)) > 1e-9 {
			return false
		}
		return math.Abs(w.Var()-twoPassVar(xs)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: At is exact at the sample points.
func TestQuickSeriesAtSamples(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%50) + 2
		src := rng.New(seed)
		s := &Series{}
		tt := 0.0
		for i := 0; i < n; i++ {
			tt += src.Float64() + 0.01
			s.Append(tt, src.Float64())
		}
		for i := 0; i < n; i++ {
			if math.Abs(s.At(s.T[i])-s.X[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// MomentGrid streams members through per-cell Welford moments: the
// result matches a direct per-cell Welford pass bit for bit, and shape
// mismatches panic instead of merging silently.
func TestMomentGrid(t *testing.T) {
	const vars, points, members = 3, 4, 6
	g := NewMomentGrid(vars, points)
	direct := make([]Welford, vars*points)
	for m := 0; m < members; m++ {
		values := make([][]float64, vars)
		for v := range values {
			values[v] = make([]float64, points)
			for p := range values[v] {
				x := math.Sin(float64(m*31+v*7+p)) + float64(m)*0.25
				values[v][p] = x
				direct[v*points+p].Add(x)
			}
		}
		g.AddMember(values)
	}
	if g.Members() != members {
		t.Fatalf("Members() = %d, want %d", g.Members(), members)
	}
	mean, std := g.MeanStd()
	for v := 0; v < vars; v++ {
		for p := 0; p < points; p++ {
			w := direct[v*points+p]
			if mean[v][p] != w.Mean() || std[v][p] != w.Std() {
				t.Fatalf("cell (%d,%d): mean/std %v/%v, want %v/%v",
					v, p, mean[v][p], std[v][p], w.Mean(), w.Std())
			}
		}
	}
	for _, bad := range [][][]float64{
		make([][]float64, vars-1),
		{make([]float64, points), make([]float64, points-1), make([]float64, points)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("shape mismatch accepted")
				}
			}()
			g.AddMember(bad)
		}()
	}
}
