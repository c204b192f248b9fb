package sim

import (
	"context"
	"errors"
	"testing"

	"parsurf/internal/lattice"
	"parsurf/internal/rng"
	"parsurf/internal/timegrid"
	"parsurf/internal/ziff"
)

func mustGrid(t *testing.T, until, every float64) timegrid.Grid {
	t.Helper()
	g, err := timegrid.New(until, every)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// RunGridFrom observes every grid index exactly once, in order.
func TestRunGridObservesEveryPoint(t *testing.T) {
	s, _ := zgbSim(t, 16, 11)
	grid := mustGrid(t, 1.0, 0.1)
	var ks []int
	steps, err := RunGridFrom(context.Background(), s, grid, 0, func(k int, cfg *lattice.Config) {
		ks = append(ks, k)
		if cfg == nil {
			t.Fatal("nil config observed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Fatal("no steps taken")
	}
	if len(ks) != grid.Len() {
		t.Fatalf("observed %d points, grid has %d", len(ks), grid.Len())
	}
	for i, k := range ks {
		if k != i {
			t.Fatalf("observation %d has grid index %d", i, k)
		}
	}
	if s.Time() < grid.Until() {
		t.Fatalf("clock %v short of the horizon %v", s.Time(), grid.Until())
	}
}

// A replica frozen in an absorbing state still yields a full grid: the
// frozen configuration is observed at every remaining point, so the
// merge never has to interpolate or clamp.
func TestRunGridFillsAbsorbedTail(t *testing.T) {
	// Pure CO impingement poisons the lattice almost immediately.
	z := ziff.New(lattice.NewSquare(8), rng.New(3), 1.0)
	grid := mustGrid(t, 50, 1)
	var covs []float64
	_, err := RunGridFrom(context.Background(), z, grid, 0, func(k int, cfg *lattice.Config) {
		covs = append(covs, cfg.Coverage(ziff.CO))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(covs) != grid.Len() {
		t.Fatalf("observed %d points, want the full grid of %d", len(covs), grid.Len())
	}
	if !z.Poisoned() {
		t.Fatal("lattice never poisoned at y=1")
	}
	if last := covs[len(covs)-1]; last != 1.0 {
		t.Fatalf("final CO coverage %v, want the frozen 1.0", last)
	}
	// Once frozen, every later observation must repeat the final value.
	frozen := false
	for i := 1; i < len(covs); i++ {
		if covs[i] == 1.0 {
			frozen = true
		}
		if frozen && covs[i] != 1.0 {
			t.Fatalf("coverage changed after the absorbing state at point %d", i)
		}
	}
}

// Cancellation aborts within one engine step and surfaces the context
// error.
func TestRunGridCancellation(t *testing.T) {
	s, _ := zgbSim(t, 16, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	steps, err := RunGridFrom(ctx, s, mustGrid(t, 1e9, 1), 0, func(int, *lattice.Config) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunGridFrom returned %v, want context.Canceled", err)
	}
	if steps != 0 {
		t.Fatalf("%d steps taken after cancellation", steps)
	}
}

// cancelAt is a Simulator whose k-th Step cancels the run's context.
// Its clock advances a quarter per step, so a cancellation lands
// between grid points as well as on them.
type cancelAt struct {
	k, steps int
	cancel   context.CancelFunc
	cfg      *lattice.Config
}

func (c *cancelAt) Step() bool {
	c.steps++
	if c.steps == c.k {
		c.cancel()
	}
	return true
}

func (c *cancelAt) Time() float64           { return float64(c.steps) / 4 }
func (c *cancelAt) Config() *lattice.Config { return c.cfg }

// A context cancelled inside the k-th Step stops every run loop before
// step k+1: each returns context.Canceled with exactly k steps counted.
func TestRunLoopsCancelMidRun(t *testing.T) {
	runners := []struct {
		name string
		run  func(ctx context.Context, s *cancelAt) (int, error)
	}{
		{"RunGridFrom", func(ctx context.Context, s *cancelAt) (int, error) {
			return RunGridFrom(ctx, s, mustGrid(t, 1e3, 1), 0, func(int, *lattice.Config) {})
		}},
		{"RunContext/sampled", func(ctx context.Context, s *cancelAt) (int, error) {
			steps, _, err := RunContext(ctx, s, 1, 1e3)
			return steps, err
		}},
		{"RunContext/unsampled", func(ctx context.Context, s *cancelAt) (int, error) {
			steps, _, err := RunContext(ctx, s, 0, 1e3)
			return steps, err
		}},
		{"StepContext", func(ctx context.Context, s *cancelAt) (int, error) {
			return StepContext(ctx, s, 1e4)
		}},
	}
	cfg := lattice.NewConfig(lattice.NewSquare(4))
	for _, r := range runners {
		for _, k := range []int{1, 4, 7} {
			ctx, cancel := context.WithCancel(context.Background())
			s := &cancelAt{k: k, cancel: cancel, cfg: cfg}
			steps, err := r.run(ctx, s)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s, cancel in step %d: returned %v, want context.Canceled", r.name, k, err)
			}
			if steps != k || s.steps != k {
				t.Errorf("%s, cancel in step %d: counted %d steps and took %d, want %d", r.name, k, steps, s.steps, k)
			}
		}
	}
}

// RunContext samples on the index-derived grid: dt=0.1 to tEnd=1.0 is
// exactly 11 samples (the accumulated-sum schedule this replaced could
// disagree with the merge about that count).
func TestRunContextGridSampleCount(t *testing.T) {
	s, _ := zgbSim(t, 16, 13)
	steps, samples, err := RunContext(context.Background(), s, 0.1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Fatal("no steps taken")
	}
	if samples != 11 {
		t.Fatalf("%d samples for dt=0.1, tEnd=1.0, want 11", samples)
	}
}

// A degenerate dt that cannot advance the clock's floats is an error,
// not an infinite loop.
func TestRunContextDegenerateDt(t *testing.T) {
	z := ziff.New(lattice.NewSquare(8), rng.New(5), 0.5)
	for z.Time() < 1e3 {
		z.Step()
	}
	if _, _, err := RunContext(context.Background(), z, 1e-16, 2e3); err == nil {
		t.Fatal("degenerate dt accepted")
	}
}

// SampleGrid from k0 continues the grid a run sampled: a session
// stopped between points and resumed past its clock observes exactly
// the tail of the uninterrupted series.
func TestSampleGridResumesFromIndex(t *testing.T) {
	grid := mustGrid(t, 2.3, 0.5) // 0, 0.5, …, 2.0 and the tail 2.3
	var want []float64
	whole, _ := zgbSim(t, 16, 14)
	record := func(ts *[]float64) Observer {
		return ObserverFunc(func(tm float64, _ *lattice.Config) { *ts = append(*ts, tm) })
	}
	if _, _, err := SampleGrid(context.Background(), whole, grid, 0, record(&want)); err != nil {
		t.Fatal(err)
	}
	if len(want) != grid.Len() {
		t.Fatalf("%d samples on a %d-point grid", len(want), grid.Len())
	}

	part, _ := zgbSim(t, 16, 14)
	if _, err := runTo(context.Background(), part, 1.2); err != nil {
		t.Fatal(err)
	}
	k0 := 0
	for grid.At(k0) <= part.Time() {
		k0++
	}
	var got []float64
	_, n, err := SampleGrid(context.Background(), part, grid, k0, record(&got))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(got) || len(got) != len(want)-k0 {
		t.Fatalf("resumed at k0=%d took %d samples, want %d", k0, len(got), len(want)-k0)
	}
	for i, tm := range got {
		if tm != want[k0+i] {
			t.Fatalf("resumed sample %d at t=%v, uninterrupted at %v", i, tm, want[k0+i])
		}
	}
}
