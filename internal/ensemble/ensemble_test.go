package ensemble

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsurf/internal/stats"
)

// The first failing job cancels its siblings: the others see their
// context done and abort, and Run reports the original error, not an
// induced context.Canceled.
func TestRunFirstErrorCancelsSiblings(t *testing.T) {
	errBoom := errors.New("boom")
	const jobs, failing = 8, 3
	var cancelled atomic.Int32
	err := Run(context.Background(), jobs, 4, func(ctx context.Context, i int) error {
		if i == failing {
			return fmt.Errorf("job %d: %w", i, errBoom)
		}
		select {
		case <-ctx.Done():
			cancelled.Add(1)
			return ctx.Err()
		case <-time.After(30 * time.Second):
			return fmt.Errorf("job %d: sibling cancellation never arrived", i)
		}
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Run returned %v, want the root-cause boom error", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned an induced cancellation: %v", err)
	}
	if cancelled.Load() == 0 {
		t.Fatal("no sibling observed the cancellation")
	}
}

// After the first failure the producer must stop feeding the queue
// (select on ctx.Done) and drained jobs must not run: a failure on the
// first job of a long queue leaves almost all of it unexecuted.
func TestRunAbortDrainsQueue(t *testing.T) {
	errBoom := errors.New("boom")
	const jobs = 10000
	var executed atomic.Int32
	err := Run(context.Background(), jobs, 2, func(ctx context.Context, i int) error {
		executed.Add(1)
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Run returned %v, want boom", err)
	}
	if n := executed.Load(); n > jobs/2 {
		t.Fatalf("%d of %d jobs executed after the first failure", n, jobs)
	}
}

// Caller cancellation surfaces as the caller's ctx error.
func TestRunParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once sync.Once
	go func() {
		<-started
		cancel()
	}()
	err := Run(ctx, 4, 2, func(ctx context.Context, i int) error {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

func TestRunAllJobsOnce(t *testing.T) {
	const jobs = 100
	ran := make([]atomic.Int32, jobs)
	if err := Run(context.Background(), jobs, 7, func(ctx context.Context, i int) error {
		ran[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
}

func memberValues(member, vars, points int) [][]float64 {
	values := make([][]float64, vars)
	for v := range values {
		values[v] = make([]float64, points)
		for p := range values[v] {
			values[v][p] = float64(member)*1.25 + float64(v)*0.5 + float64(p)*0.125
		}
	}
	return values
}

// Commits happen in member order regardless of Add order, so the
// moments are bit-identical for every arrival interleaving.
func TestAccumulatorOrderIndependent(t *testing.T) {
	const vars, points, members = 2, 5, 7
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 1, 5, 2, 4},
	}
	var wantMean, wantStd [][]float64
	for _, order := range orders {
		acc := NewAccumulator(vars, points, members)
		for _, m := range order {
			mustAdd(t, acc, m, memberValues(m, vars, points))
		}
		if acc.Merged() != members {
			t.Fatalf("order %v: %d members merged, want %d", order, acc.Merged(), members)
		}
		mean, std := acc.MeanStd()
		if wantMean == nil {
			wantMean, wantStd = mean, std
			continue
		}
		for v := 0; v < vars; v++ {
			for p := 0; p < points; p++ {
				if mean[v][p] != wantMean[v][p] || std[v][p] != wantStd[v][p] {
					t.Fatalf("order %v: moments differ at (%d, %d)", order, v, p)
				}
			}
		}
	}
	// Cross-check one cell against a direct Welford pass.
	var w stats.Welford
	for m := 0; m < members; m++ {
		w.Add(memberValues(m, vars, points)[1][3])
	}
	if wantMean[1][3] != w.Mean() || wantStd[1][3] != w.Std() {
		t.Fatalf("cell (1,3) mean/std %v/%v, want %v/%v", wantMean[1][3], wantStd[1][3], w.Mean(), w.Std())
	}
}

func TestAccumulatorRejectsDuplicates(t *testing.T) {
	acc := NewAccumulator(1, 2, 8)
	mustAdd(t, acc, 0, memberValues(0, 1, 2))
	for name, member := range map[string]int{"committed": 0, "pending": 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate %s member accepted", name)
				}
			}()
			mustAdd(t, acc, member, memberValues(member, 1, 2))
			mustAdd(t, acc, member, memberValues(member, 1, 2))
		}()
	}
}

func mustAdd(t *testing.T, acc *Accumulator, member int, values [][]float64) {
	t.Helper()
	if err := acc.Add(context.Background(), member, values); err != nil {
		t.Fatal(err)
	}
}

// The reorder buffer is bounded by the window: an Add running too far
// ahead of the commit frontier blocks until the frontier advances, and
// a cancelled context aborts the wait instead of deadlocking.
func TestAccumulatorWindowBoundsBuffer(t *testing.T) {
	acc := NewAccumulator(1, 2, 2)
	blocked := make(chan error, 1)
	go func() { blocked <- acc.Add(context.Background(), 2, memberValues(2, 1, 2)) }()
	select {
	case err := <-blocked:
		t.Fatalf("Add(2) did not block on a full window (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	mustAdd(t, acc, 0, memberValues(0, 1, 2)) // frontier → 1, window admits 2
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if p := acc.Pending(); p >= 2 {
		t.Fatalf("reorder buffer holds %d members, window is 2", p)
	}
	mustAdd(t, acc, 1, memberValues(1, 1, 2))
	if acc.Merged() != 3 {
		t.Fatalf("%d members merged, want 3", acc.Merged())
	}

	ctx, cancel := context.WithCancel(context.Background())
	acc2 := NewAccumulator(1, 2, 1)
	waiting := make(chan error, 1)
	go func() { waiting <- acc2.Add(ctx, 1, memberValues(1, 1, 2)) }()
	cancel()
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Add returned %v, want context.Canceled", err)
	}
}

// A cancellation landing only after every job already succeeded does
// not discard the completed result.
func TestRunLateCancellationKeepsResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const jobs = 4
	var done atomic.Int32
	err := Run(ctx, jobs, 2, func(ctx context.Context, i int) error {
		if done.Add(1) == jobs {
			cancel() // fires inside the final job, after all work is done
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run returned %v after every job succeeded", err)
	}
}

// The release hook fires exactly once per member, in commit (member)
// order, no matter how out of order the Adds arrive — the contract the
// parsurf sample-buffer pool recycles on.
func TestAccumulatorReleaseFiresOnCommit(t *testing.T) {
	const vars, points, members = 2, 3, 5
	acc := NewAccumulator(vars, points, members)
	buffers := make([][][]float64, members)
	for m := range buffers {
		buffers[m] = memberValues(m, vars, points)
	}
	var released [][][]float64
	acc.SetRelease(func(v [][]float64) { released = append(released, v) })

	for _, m := range []int{2, 0, 4, 3, 1} {
		mustAdd(t, acc, m, buffers[m])
	}
	if len(released) != members {
		t.Fatalf("release fired %d times, want %d", len(released), members)
	}
	for m, v := range released {
		if &v[0][0] != &buffers[m][0][0] {
			t.Errorf("release %d did not hand back member %d's buffer", m, m)
		}
	}
	mean, _ := acc.MeanStd()
	if len(mean) != vars || len(mean[0]) != points {
		t.Fatalf("MeanStd shape %dx%d after releases", len(mean), len(mean[0]))
	}
}

// A panicking job is contained: Run returns a *PanicError carrying the
// panic value and a stack trace, siblings are cancelled (not crashed),
// and the test process — standing in for surfd — survives.
func TestRunPanicContained(t *testing.T) {
	const jobs, panicking = 8, 2
	var cancelled atomic.Int32
	// The panic waits for a sibling to be running: job 0 is dequeued
	// before job 2, so it is in flight and must observe the abort
	// (otherwise every sibling could be skipped unrun).
	siblingRunning := make(chan struct{})
	var once sync.Once
	err := Run(context.Background(), jobs, 4, func(ctx context.Context, i int) error {
		if i == panicking {
			<-siblingRunning
			panic("engine bug")
		}
		once.Do(func() { close(siblingRunning) })
		select {
		case <-ctx.Done():
			cancelled.Add(1)
			return ctx.Err()
		case <-time.After(30 * time.Second):
			return fmt.Errorf("job %d: sibling cancellation never arrived", i)
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v (%T), want *PanicError", err, err)
	}
	if pe.Job != panicking {
		t.Errorf("PanicError.Job = %d, want %d", pe.Job, panicking)
	}
	if pe.Value != "engine bug" {
		t.Errorf("PanicError.Value = %v, want \"engine bug\"", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "ensemble_test.go") {
		t.Errorf("PanicError.Stack does not point at the panic site:\n%s", pe.Stack)
	}
	if !strings.Contains(err.Error(), "engine bug") {
		t.Errorf("error text %q does not carry the panic value", err.Error())
	}
	if cancelled.Load() == 0 {
		t.Fatal("no sibling observed the cancellation")
	}
}

// A panic carrying a nil-ish error value must still convert: recover()
// returning a typed nil or plain error is containment's worst case.
func TestRunPanicErrorValue(t *testing.T) {
	cause := errors.New("wrapped cause")
	err := Run(context.Background(), 1, 1, func(ctx context.Context, i int) error {
		panic(cause)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v (%T), want *PanicError", err, err)
	}
	if pe.Value != cause {
		t.Errorf("PanicError.Value = %v, want the panicked error", pe.Value)
	}
}
