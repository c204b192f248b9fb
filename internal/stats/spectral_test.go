package stats

import (
	"math"
	"testing"

	"parsurf/internal/rng"
)

func TestPeriodogramFindsSine(t *testing.T) {
	const n = 512
	dt := 0.5
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) * dt / 16) // period 16
	}
	power, freq := Periodogram(xs, dt)
	best, bestIdx := 0.0, -1
	for i, p := range power {
		if p > best {
			best, bestIdx = p, i
		}
	}
	got := 1 / freq[bestIdx]
	if math.Abs(got-16)/16 > 0.05 {
		t.Fatalf("dominant period %v, want 16", got)
	}
}

func TestPeriodogramDegenerate(t *testing.T) {
	if p, f := Periodogram([]float64{1, 2}, 1); p != nil || f != nil {
		t.Fatal("short input not rejected")
	}
	if p, _ := Periodogram(make([]float64, 16), 0); p != nil {
		t.Fatal("zero dt not rejected")
	}
}

func TestDominantPeriod(t *testing.T) {
	s := &Series{}
	for i := 0; i <= 2000; i++ {
		tt := float64(i) * 0.1
		s.Append(tt, 0.5+0.2*math.Sin(2*math.Pi*tt/14))
	}
	period, share, ok := DominantPeriod(s, 1024)
	if !ok {
		t.Fatal("not detected")
	}
	if math.Abs(period-14)/14 > 0.06 {
		t.Fatalf("period %v, want 14", period)
	}
	// A non-integer number of cycles leaks power into neighbouring
	// bins; the dominant bin still carries well over half.
	if share < 0.5 {
		t.Fatalf("pure sine share %v", share)
	}
}

func TestDominantPeriodWhiteNoiseLowShare(t *testing.T) {
	src := rng.New(4)
	s := &Series{}
	for i := 0; i <= 2000; i++ {
		s.Append(float64(i)*0.1, src.Float64())
	}
	_, share, ok := DominantPeriod(s, 1024)
	if ok && share > 0.2 {
		t.Fatalf("white noise claims dominant share %v", share)
	}
}

func TestDominantPeriodShortSeries(t *testing.T) {
	s := &Series{}
	s.Append(0, 1)
	s.Append(1, 2)
	if _, _, ok := DominantPeriod(s, 64); ok {
		t.Fatal("short series accepted")
	}
}
