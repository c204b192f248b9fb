package sim

import (
	"context"
	"math"
	"testing"

	"parsurf/internal/dmc"
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
)

func zgbSim(t testing.TB, l int, seed uint64) (*dmc.RSM, *lattice.Config) {
	t.Helper()
	m := model.NewZGB(model.DefaultZGBRates())
	lat := lattice.NewSquare(l)
	cm, err := model.Compile(m, lat)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lattice.NewConfig(lat)
	return dmc.NewRSM(cm, cfg, rng.New(seed)), cfg
}

func TestRunContextSamplesAllObservers(t *testing.T) {
	s, _ := zgbSim(t, 16, 1)
	cov := NewCoverageObserver(model.ZGBEmpty, model.ZGBCO, model.ZGBO)
	snap := NewSnapshotObserver(2)
	_, n, err := RunContext(context.Background(), s, 0.5, 10, cov, snap)
	if err != nil {
		t.Fatal(err)
	}
	if n < 15 {
		t.Fatalf("only %d samples", n)
	}
	for i, series := range cov.Series {
		if series.Len() != n {
			t.Fatalf("series %d has %d points, want %d", i, series.Len(), n)
		}
	}
	if len(snap.Snapshots) != (n+1)/2 {
		t.Fatalf("%d snapshots for %d samples at every=2", len(snap.Snapshots), n)
	}
}

func TestCoverageObserverPartition(t *testing.T) {
	s, cfg := zgbSim(t, 16, 3)
	cov := NewCoverageObserver(model.ZGBEmpty, model.ZGBCO, model.ZGBO)
	if _, _, err := RunContext(context.Background(), s, 0.5, 5, cov); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cov.Series[0].Len(); i++ {
		sum := cov.Series[0].X[i] + cov.Series[1].X[i] + cov.Series[2].X[i]
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("coverages at sample %d sum to %v", i, sum)
		}
	}
	// Series[i] tracks Species[i]: the last CO sample is the live CO
	// coverage.
	co := cov.Series[1]
	if got, want := co.X[co.Len()-1], cfg.Coverage(model.ZGBCO); got != want {
		t.Fatalf("last CO sample %v, want %v", got, want)
	}
}

func TestSnapshotObserverDeepCopies(t *testing.T) {
	s, cfg := zgbSim(t, 8, 5)
	snap := NewSnapshotObserver(1)
	if _, _, err := RunContext(context.Background(), s, 0.5, 3, snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Snapshots) < 2 {
		t.Fatal("too few snapshots")
	}
	// Mutating the live config must not touch stored snapshots.
	before := snap.Snapshots[0].Clone()
	cfg.Fill(2)
	if !snap.Snapshots[0].Equal(before) {
		t.Fatal("snapshot aliases the live configuration")
	}
	if len(snap.Times) != len(snap.Snapshots) {
		t.Fatal("times/snapshots length mismatch")
	}
}

func TestSteadyStateDetector(t *testing.T) {
	ss := NewSteadyState(5, 0.01)
	// Ramp: never steady while rising fast.
	for i := 0; i < 10; i++ {
		if ss.Add(float64(i)) {
			t.Fatalf("steady claimed on a ramp at %d", i)
		}
	}
	// Plateau: becomes steady after two windows.
	steadyAt := -1
	for i := 0; i < 12; i++ {
		if ss.Add(9.0) && steadyAt == -1 {
			steadyAt = i
		}
	}
	if steadyAt == -1 {
		t.Fatal("plateau never detected")
	}
}

func TestSteadyStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSteadyState(0, 0.1)
}

func TestSteadyStateWithSimulation(t *testing.T) {
	// The ZGB model reaches its reactive steady state; the detector
	// must fire within a reasonable horizon.
	s, cfg := zgbSim(t, 24, 7)
	ss := NewSteadyState(10, 0.02)
	steady := false
	for i := 0; i < 400 && !steady; i++ {
		s.Step()
		steady = ss.Add(cfg.Coverage(model.ZGBO))
	}
	if !steady {
		t.Fatal("steady state never detected in 400 MC steps")
	}
}

func TestSteadyStateMemoryBounded(t *testing.T) {
	ss := NewSteadyState(10, 0.01)
	for i := 0; i < 100000; i++ {
		ss.Add(float64(i % 7))
	}
	if len(ss.values) > 2*ss.Window {
		t.Fatalf("values grew to %d, want <= %d", len(ss.values), 2*ss.Window)
	}
	// Detection still works on the retained tail: a plateau after the
	// noise equilibrates within two windows.
	steadyAt := -1
	for i := 0; i < 2*ss.Window; i++ {
		if ss.Add(3.0) && steadyAt == -1 {
			steadyAt = i
		}
	}
	if steadyAt == -1 {
		t.Fatal("plateau never detected after long run")
	}
}
