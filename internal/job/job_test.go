package job

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"parsurf"
	"parsurf/internal/store"
)

// ziffSpec builds a small model-free spec for job tests.
func ziffSpec(t *testing.T, y float64, seed uint64) *parsurf.SessionSpec {
	t.Helper()
	spec, err := parsurf.NewSpec(
		parsurf.WithLattice(24, 24),
		parsurf.WithEngine("ziff", parsurf.COFraction(y)),
		parsurf.WithSeed(seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// newMemManager starts a manager on a fresh in-memory store.
func newMemManager(t *testing.T, runners, backlog int, opts ...ManagerOption) *Manager {
	t.Helper()
	m, err := NewManagerWithStore(runners, backlog, store.NewMem(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitTerminal blocks until the job finishes or the deadline passes.
func waitTerminal(t *testing.T, j *Job, d time.Duration) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(d):
		t.Fatalf("job %s still %s after %v", j.ID(), j.Status().State, d)
	}
	return j.Status()
}

func TestJobLifecycle(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	const replicas, until, every = 3, 5.0, 1.0
	spec := ziffSpec(t, 0.51, 42)
	j, err := m.Submit(Request{
		Specs:    []*parsurf.SessionSpec{spec},
		Replicas: replicas,
		Workers:  2,
		Until:    until,
		Every:    every,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(j.ID(), "job-") {
		t.Errorf("job id %q", j.ID())
	}
	st := waitTerminal(t, j, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("state %s (err %q), want done", st.State, st.Error)
	}
	grid, err := parsurf.NewTimeGrid(until, every)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := int64(replicas) * int64(grid.Len())
	if st.Progress.GridPointsMerged != wantPoints || st.Progress.TotalGridPoints != wantPoints {
		t.Errorf("progress %d/%d grid points, want %d/%d",
			st.Progress.GridPointsMerged, st.Progress.TotalGridPoints, wantPoints, wantPoints)
	}
	if st.Progress.Steps == 0 {
		t.Error("no engine steps recorded")
	}
	res, err := j.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 1 {
		t.Fatalf("%d variants, want 1", len(res.Variants))
	}
	if got := len(res.Variants[0].Mean[0]); got != grid.Len() {
		t.Fatalf("mean has %d points, want %d", got, grid.Len())
	}
	// The job result is exactly what a direct RunEnsemble computes:
	// same spec, same replica streams, same merge.
	ens, err := parsurf.RunEnsemble(t.Context(), spec, replicas, 1, until, every)
	if err != nil {
		t.Fatal(err)
	}
	for sp, m := range ens.Mean {
		for k, x := range m.X {
			if res.Variants[0].Mean[sp][k] != x || res.Variants[0].Std[sp][k] != ens.Std[sp].X[k] {
				t.Fatalf("species %d point %d differs from a direct RunEnsemble", sp, k)
			}
		}
	}
}

// A sweep job returns one ensemble per variant.
func TestJobSweepVariants(t *testing.T) {
	m := newMemManager(t, 2, 0)
	defer m.Close()
	j, err := m.Submit(Request{
		Specs:    []*parsurf.SessionSpec{ziffSpec(t, 0.45, 1), ziffSpec(t, 0.55, 2)},
		Replicas: 2,
		Workers:  2,
		Until:    3,
		Every:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st.State != StateDone {
		t.Fatalf("state %s (err %q)", st.State, st.Error)
	}
	res, err := j.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 2 {
		t.Fatalf("%d variants, want 2", len(res.Variants))
	}
	same := true
	for i, x := range res.Variants[0].Mean[1] {
		if res.Variants[1].Mean[1][i] != x {
			same = false
			break
		}
	}
	if same {
		t.Error("different y variants produced identical CO means")
	}
}

// Cancelling a running job stops its replicas: with a single runner,
// a subsequent short job can only complete if the cancelled job's
// effectively-infinite replicas actually aborted and freed the runner.
func TestJobCancelStopsReplicas(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	long, err := m.Submit(Request{
		Specs:    []*parsurf.SessionSpec{ziffSpec(t, 0.51, 7)},
		Replicas: 2,
		Workers:  2,
		Until:    1e9,
		Every:    1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is demonstrably running (progress moving).
	deadline := time.Now().Add(30 * time.Second)
	for long.Status().Progress.GridPointsMerged == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("long job never reported progress (state %s)", long.Status().State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	long.Cancel()
	if st := waitTerminal(t, long, 10*time.Second); st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if _, err := long.ResultData(); err == nil {
		t.Fatal("cancelled job returned a result")
	}
	// The single runner is only freed when the replicas stop.
	short, err := m.Submit(Request{
		Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.51, 8)},
		Until: 2,
		Every: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, short, 30*time.Second); st.State != StateDone {
		t.Fatalf("follow-up job state %s (err %q), want done — cancelled job may still hold the runner",
			st.State, st.Error)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	cases := []struct {
		name string
		req  Request
	}{
		{"no specs", Request{Until: 1, Every: 1}},
		{"nil spec", Request{Specs: []*parsurf.SessionSpec{nil}, Until: 1, Every: 1}},
		{"degenerate grid", Request{Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.5, 1)}, Until: 1, Every: 0}},
		{"negative replicas", Request{Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.5, 1)}, Replicas: -1, Until: 1, Every: 1}},
	}
	for _, tc := range cases {
		if _, err := m.Submit(tc.req); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// Close cancels running jobs and rejects new submissions.
func TestManagerClose(t *testing.T) {
	m := newMemManager(t, 1, 0)
	j, err := m.Submit(Request{
		Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.51, 3)},
		Until: 1e9,
		Every: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	st := j.Status()
	if !st.State.Terminal() {
		t.Fatalf("job state %s after Close, want terminal", st.State)
	}
	if _, err := m.Submit(Request{
		Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.5, 1)}, Until: 1, Every: 1,
	}); err == nil {
		t.Fatal("submit after Close accepted")
	}
}

// Queued jobs past the backlog are rejected, not silently dropped.
func TestBacklogBound(t *testing.T) {
	m := newMemManager(t, 1, 1)
	defer m.Close()
	// One long job occupies the runner; one fits the backlog; the next
	// must be rejected.
	submit := func() error {
		_, err := m.Submit(Request{
			Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.51, 4)},
			Until: 1e9, Every: 1e6,
		})
		return err
	}
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	// The runner may or may not have drained the first job yet, so one
	// or two more submissions fit; the third consecutive success would
	// mean the bound is not enforced.
	rejected := false
	for i := 0; i < 3; i++ {
		if err := submit(); err != nil {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("backlog of 1 accepted 4 long jobs")
	}
}

// Cancelling a job that already reached a terminal state is a no-op:
// the state, error and result all stay what the terminal transition
// set.
func TestCancelAfterTerminalNoop(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	j, err := m.Submit(Request{
		Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.51, 5)},
		Until: 2, Every: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st.State != StateDone {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	j.Cancel()
	j.Cancel() // repeatedly, per the contract
	if st := j.Status(); st.State != StateDone || st.Error != "" {
		t.Fatalf("cancel after done mutated the job: %+v", st)
	}
	if _, err := j.ResultData(); err != nil {
		t.Fatalf("result lost after post-terminal cancel: %v", err)
	}
}

// With the single runner pinned by a running job, a backlog of one
// holds exactly one queued job: the next submission is rejected with
// the backlog error, deterministically.
func TestBacklogFullRejection(t *testing.T) {
	m := newMemManager(t, 1, 1)
	defer m.Close()
	long := func(seed uint64) (*Job, error) {
		return m.Submit(Request{
			Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.51, seed)},
			Until: 1e9, Every: 1e6,
		})
	}
	runner, err := long(1)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the runner demonstrably holds the first job, so the
	// queue is empty and its capacity the only variable.
	deadline := time.Now().Add(30 * time.Second)
	for runner.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("first job never started (state %s)", runner.Status().State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := long(2); err != nil {
		t.Fatalf("backlog of 1 rejected its first queued job: %v", err)
	}
	_, err = long(3)
	if err == nil {
		t.Fatal("backlog of 1 accepted a second queued job")
	}
	if !strings.Contains(err.Error(), "backlog full") {
		t.Fatalf("rejection says %q, want a backlog-full error", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("backlog-full rejection %q does not wrap ErrOverloaded", err)
	}
}

// Submit racing Close never panics on the closed queue and never
// strands a job: every accepted submission reaches a terminal state.
func TestSubmitRacingClose(t *testing.T) {
	m := newMemManager(t, 2, 4)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []*Job
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				j, err := m.Submit(Request{
					Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.51, uint64(g*100+i+1))},
					Until: 1e9, Every: 1e6,
				})
				if err != nil {
					return // shut down or backlog full: both fine
				}
				mu.Lock()
				accepted = append(accepted, j)
				mu.Unlock()
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	m.Close()
	wg.Wait()
	for _, j := range accepted {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s stranded in %s after Close raced Submit", j.ID(), j.Status().State)
		}
	}
}
