package parsurf_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"parsurf"
	"parsurf/internal/stats"
	"parsurf/internal/ziff"
)

// replicaRows runs replicas [0, replicas) of spec through
// RunReplicaRange: the raw per-replica sample rows a RunEnsemble of the
// same shape merges.
func replicaRows(t testing.TB, spec *parsurf.SessionSpec, replicas, workers int, until, every float64) [][][]float64 {
	t.Helper()
	rows, err := parsurf.RunReplicaRange(context.Background(), spec, 0, 0, replicas, workers, until, every)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// freshRows is the fresh-build reference: each replica runs in its own
// width-1 RunReplicaRange call, so its session is built from scratch
// rather than rewound from a pooled predecessor.
func freshRows(t testing.TB, spec *parsurf.SessionSpec, replicas int, until, every float64) [][][]float64 {
	t.Helper()
	rows := make([][][]float64, replicas)
	for i := range rows {
		r, err := parsurf.RunReplicaRange(context.Background(), spec, 0, i, i+1, 1, until, every)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = r[0]
	}
	return rows
}

// rowsEqual reports whether two replica row sets are bit-identical.
func rowsEqual(a, b [][][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for sp := range a[i] {
			if len(a[i][sp]) != len(b[i][sp]) {
				return false
			}
			for k := range a[i][sp] {
				if a[i][sp][k] != b[i][sp][k] {
					return false
				}
			}
		}
	}
	return true
}

// matchesWelford reports whether the ensemble's Mean/Std are exactly
// the per-point Welford moments of rows, merged in replica order.
func matchesWelford(ens *parsurf.Ensemble, rows [][][]float64) bool {
	for sp := range ens.Mean {
		for k := range ens.Mean[sp].X {
			var w stats.Welford
			for _, row := range rows {
				w.Add(row[sp][k])
			}
			if ens.Mean[sp].X[k] != w.Mean() || ens.Std[sp].X[k] != w.Std() {
				return false
			}
		}
	}
	return true
}

// The ROADMAP grid-truncation bug, fixed: for until=1.0, every=0.1 the
// Mean/Std grid has exactly 11 points, every point is the index-derived
// i·0.1 (1.0 at the end), and the replicas sample on the very same grid
// — alignment is exact, no interpolation anywhere.
func TestEnsembleGridAlignment(t *testing.T) {
	spec := zgbEnsembleSpec(t)
	const replicas = 3
	ens, err := parsurf.RunEnsemble(context.Background(), spec, replicas, 2, 1.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Grid.Len() != 11 {
		t.Fatalf("grid has %d points, want 11", ens.Grid.Len())
	}
	for sp, m := range ens.Mean {
		if m.Len() != 11 || ens.Std[sp].Len() != 11 {
			t.Fatalf("species %d: Mean/Std have %d/%d points, want 11", sp, m.Len(), ens.Std[sp].Len())
		}
	}
	for i := 0; i < 10; i++ {
		if want := float64(i) * 0.1; ens.Mean[0].T[i] != want {
			t.Errorf("Mean grid point %d is %v, want exactly %v", i, ens.Mean[0].T[i], want)
		}
	}
	if ens.Mean[0].T[10] != 1.0 {
		t.Errorf("final Mean grid point is %v, want exactly 1.0", ens.Mean[0].T[10])
	}
	// Exact alignment: every replica records one sample per grid point,
	// and the merge grid's times are the grid's own points.
	rows := replicaRows(t, spec, replicas, 2, 1.0, 0.1)
	for r, row := range rows {
		for sp := range row {
			if len(row[sp]) != 11 {
				t.Fatalf("replica %d species %d sampled %d points, want 11", r, sp, len(row[sp]))
			}
		}
	}
	for i := range ens.Mean[0].T {
		if ens.Mean[0].T[i] != ens.Grid.At(i) {
			t.Fatalf("merge time %d (%v) is not grid point %v", i, ens.Mean[0].T[i], ens.Grid.At(i))
		}
	}
	// And the merge is the plain per-point Welford over replica values —
	// no resampling in between.
	if !matchesWelford(ens, rows) {
		t.Fatal("Mean/Std differ from the direct Welford over the replica rows")
	}
}

// Replica trajectories AND the merged moments are bit-identical for
// every worker count: replicas stream in completion order but commit
// in index order. Run under -race in CI.
func TestEnsembleWorkerDeterminism(t *testing.T) {
	spec := zgbEnsembleSpec(t)
	const replicas, until, every = 6, 5, 0.5
	var (
		ref     *parsurf.Ensemble
		refRows [][][]float64
	)
	for _, workers := range []int{1, 4, replicas} {
		ens, err := parsurf.RunEnsemble(context.Background(), spec, replicas, workers, until, every)
		if err != nil {
			t.Fatal(err)
		}
		rows := replicaRows(t, spec, replicas, workers, until, every)
		if ref == nil {
			ref, refRows = ens, rows
			continue
		}
		if !seriesEqual(ref.Mean, ens.Mean) || !seriesEqual(ref.Std, ens.Std) {
			t.Fatalf("Mean/Std differ between 1 and %d workers", workers)
		}
		if !rowsEqual(refRows, rows) {
			t.Fatalf("replica trajectories differ between 1 and %d workers", workers)
		}
	}
}

// The runner streams: only the merged moments come back.
func TestEnsembleStreamsByDefault(t *testing.T) {
	spec := zgbEnsembleSpec(t)
	ens, err := parsurf.RunEnsemble(context.Background(), spec, 4, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Mean) != spec.NumSpecies() || len(ens.Std) != spec.NumSpecies() {
		t.Fatalf("got %d/%d Mean/Std series, want %d", len(ens.Mean), len(ens.Std), spec.NumSpecies())
	}
	if ens.Mean[0].Len() != ens.Grid.Len() {
		t.Fatalf("Mean has %d points, grid has %d", ens.Mean[0].Len(), ens.Grid.Len())
	}
}

// An absorbed replica (y=1 CO-poisons almost immediately) holds its
// frozen coverage for every remaining grid point, so the merge gets
// exact values on the full grid from every member.
func TestEnsembleAbsorbedReplicaFillsGrid(t *testing.T) {
	spec, err := parsurf.NewSpec(
		parsurf.WithLattice(16, 16),
		parsurf.WithEngine("ziff", parsurf.COFraction(1.0)),
		parsurf.WithSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	const replicas = 3
	poisoned := make([]bool, replicas)
	ens, err := parsurf.RunEnsemble(context.Background(), spec, replicas, 2, 50, 1,
		parsurf.ObserveReplicas(func(_, replica int, _ float64, sess *parsurf.Session) {
			poisoned[replica] = sess.Engine().(*parsurf.ZiffZGB).Poisoned()
		}))
	if err != nil {
		t.Fatal(err)
	}
	co := int(ziff.CO)
	if got := ens.Mean[co].Len(); got != 51 {
		t.Fatalf("Mean has %d points, want 51", got)
	}
	if last := ens.Mean[co].X[50]; last != 1.0 {
		t.Fatalf("mean CO coverage at the horizon is %v, want 1.0 (all replicas poisoned)", last)
	}
	for r, p := range poisoned {
		if !p {
			t.Fatalf("replica %d not poisoned at y=1", r)
		}
	}
	for r, row := range replicaRows(t, spec, replicas, 2, 50, 1) {
		if len(row[co]) != 51 || row[co][50] != 1.0 {
			t.Fatalf("replica %d coverage has %d points ending at %v, want the full grid frozen at 1.0",
				r, len(row[co]), row[co][len(row[co])-1])
		}
	}
}

// ObserveReplicas fires at every grid point with the replica's live
// session, on the replica's goroutine.
func TestEnsembleObserveReplicas(t *testing.T) {
	spec := zgbEnsembleSpec(t)
	const replicas, until, every = 3, 5, 1
	var calls atomic.Int64
	finalCO2 := make([]uint64, replicas)
	ens, err := parsurf.RunEnsemble(context.Background(), spec, replicas, 2, until, every,
		parsurf.ObserveReplicas(func(variant, replica int, tm float64, sess *parsurf.Session) {
			if variant != 0 {
				t.Errorf("RunEnsemble observer saw variant %d", variant)
			}
			calls.Add(1)
			finalCO2[replica] = sess.Engine().(*parsurf.ZiffZGB).CO2Count()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(replicas * ens.Grid.Len()); calls.Load() != want {
		t.Fatalf("observer fired %d times, want %d", calls.Load(), want)
	}
	for r, c := range finalCO2 {
		if c == 0 {
			t.Errorf("replica %d produced no CO2 in the reactive window", r)
		}
	}
}

// The ROADMAP no-sibling-cancel bug, fixed at the facade: the failing
// variant's replica-build error aborts the healthy replicas (which
// would otherwise run to an effectively infinite horizon) and is
// returned as-is — not as an induced context.Canceled. The bad variant
// passes spec validation (option resolution is engine-independent) but
// its engine construction fails per replica: 20 rows cannot host 12
// DDRSM strips.
func TestSweepFirstErrorCancelsSiblings(t *testing.T) {
	bad, err := parsurf.NewSpec(
		parsurf.WithModel(parsurf.NewZGBModel(parsurf.DefaultZGBRates())),
		parsurf.WithLattice(20, 20),
		parsurf.WithEngine("ddrsm", parsurf.Workers(12)),
	)
	if err != nil {
		t.Fatal(err)
	}
	healthy := zgbEnsembleSpec(t)
	// The bad variant fails while the healthy replica is mid-run toward
	// t=1e9; only prompt sibling cancellation lets this test finish.
	_, err = parsurf.RunSweep(context.Background(),
		[]*parsurf.SessionSpec{bad, healthy}, 1, 2, 1e9, 1e6)
	if err == nil {
		t.Fatal("sweep with a failing variant returned nil error")
	}
	if !strings.Contains(err.Error(), "cannot host") {
		t.Fatalf("sweep returned %v, want the root-cause strip-count build error", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("sweep reported an induced cancellation: %v", err)
	}
	if !strings.Contains(err.Error(), "variant 0") {
		t.Errorf("error %q does not name the failing variant", err)
	}
}

// Caller cancellation still surfaces as context.Canceled.
func TestEnsembleParentCancellation(t *testing.T) {
	spec := zgbEnsembleSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := parsurf.RunEnsemble(ctx, spec, 4, 2, 10, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunEnsemble returned %v, want context.Canceled", err)
	}
}

// A sweep runs one independent ensemble per variant: different y
// values give different coverages, every variant merges on the shared
// grid, and each variant's replicas reproduce what a standalone
// RunEnsemble of that spec computes.
func TestSweepMatchesStandaloneEnsembles(t *testing.T) {
	ys := []float64{0.45, 0.55}
	specs := make([]*parsurf.SessionSpec, len(ys))
	for i, y := range ys {
		spec, err := parsurf.NewSpec(
			parsurf.WithLattice(24, 24),
			parsurf.WithEngine("ziff", parsurf.COFraction(y)),
			parsurf.WithSeed(42+uint64(i)),
		)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	const replicas, until, every = 3, 5, 1
	swept, err := parsurf.RunSweep(context.Background(), specs, replicas, 3, until, every)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != len(ys) {
		t.Fatalf("sweep returned %d ensembles for %d specs", len(swept), len(ys))
	}
	if seriesEqual(swept[0].Mean, swept[1].Mean) {
		t.Error("different y variants produced identical means")
	}
	for v := range specs {
		solo, err := parsurf.RunEnsemble(context.Background(), specs[v], replicas, 2, until, every)
		if err != nil {
			t.Fatal(err)
		}
		if !seriesEqual(solo.Mean, swept[v].Mean) || !seriesEqual(solo.Std, swept[v].Std) {
			t.Errorf("variant %d: sweep result differs from standalone RunEnsemble", v)
		}
	}
}

// RunReplicaRange is the fleet shard primitive: a slice [lo, hi) of the
// replica space must reproduce, bit for bit, the rows the same replicas
// record inside a full single-node ensemble — whatever worker count runs
// the shard.
func TestRunReplicaRangeMatchesEnsemble(t *testing.T) {
	spec := zgbEnsembleSpec(t)
	const replicas = 6
	ens, err := parsurf.RunEnsemble(context.Background(), spec, replicas, 2, 1.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// The full range is exactly what the ensemble merged.
	full := replicaRows(t, spec, replicas, 2, 1.0, 0.1)
	if !matchesWelford(ens, full) {
		t.Fatal("full-range rows do not merge to the ensemble's Mean/Std")
	}
	for _, workers := range []int{1, 3} {
		rows, err := parsurf.RunReplicaRange(context.Background(), spec, 0, 2, 5, workers, 1.0, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("range [2,5) returned %d replicas, want 3", len(rows))
		}
		if !rowsEqual(rows, full[2:5]) {
			t.Fatalf("workers=%d: shard [2,5) rows differ from the ensemble's replicas 2..4", workers)
		}
	}
}

func TestRunReplicaRangeValidation(t *testing.T) {
	spec := zgbEnsembleSpec(t)
	ctx := context.Background()
	if _, err := parsurf.RunReplicaRange(ctx, nil, 0, 0, 1, 1, 1.0, 0.1); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := parsurf.RunReplicaRange(ctx, spec, 0, 3, 3, 1, 1.0, 0.1); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := parsurf.RunReplicaRange(ctx, spec, 0, -1, 2, 1, 1.0, 0.1); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := parsurf.RunReplicaRange(ctx, spec, 0, 0, 1, 1, 0, 0.1); err == nil {
		t.Error("zero horizon accepted")
	}
}

// Validation errors for the sweep entry point.
func TestSweepValidation(t *testing.T) {
	ctx := context.Background()
	spec := zgbEnsembleSpec(t)
	cases := []struct {
		name string
		run  func() error
	}{
		{"no specs", func() error {
			_, err := parsurf.RunSweep(ctx, nil, 1, 1, 1, 1)
			return err
		}},
		{"nil spec", func() error {
			_, err := parsurf.RunSweep(ctx, []*parsurf.SessionSpec{spec, nil}, 1, 1, 1, 1)
			return err
		}},
		{"zero replicas", func() error {
			_, err := parsurf.RunSweep(ctx, []*parsurf.SessionSpec{spec}, 0, 1, 1, 1)
			return err
		}},
		{"degenerate grid", func() error {
			_, err := parsurf.RunSweep(ctx, []*parsurf.SessionSpec{spec}, 1, 1, 1, 0)
			return err
		}},
	}
	for _, tc := range cases {
		if tc.run() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// The facade TimeGrid constructor mirrors the internal one.
func TestNewTimeGridFacade(t *testing.T) {
	g, err := parsurf.NewTimeGrid(1.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 11 || g.At(10) != 1.0 {
		t.Fatalf("facade grid: %d points ending at %v", g.Len(), g.At(g.Len()-1))
	}
	if _, err := parsurf.NewTimeGrid(0, 1); err == nil {
		t.Error("zero horizon accepted")
	}
}
