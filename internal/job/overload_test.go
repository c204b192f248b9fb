package job

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"parsurf"
	"parsurf/internal/store"
)

// slowReq is a workload that cannot finish within a test's patience: a
// huge horizon keeps its replicas running until cancelled, killed by a
// deadline, or the test gives up.
func slowReq(t *testing.T, seed uint64) Request {
	t.Helper()
	return Request{
		Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.51, seed)},
		Until: 1e9, Every: 1e6,
	}
}

// waitState polls until the job reaches the state or the deadline
// passes.
func waitState(t *testing.T, j *Job, want State, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for j.Status().State != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %s, want %s", j.ID(), j.Status().State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The panic-containment guarantee end to end: with ChaosPanicSeed
// armed, a job whose spec matches panics inside a replica. The panic
// must fail only that job — with the stack in its error and its stored
// record — while a sibling job on the same manager completes with
// bytes identical to a clean control run, and a restart over the same
// store keeps the panic job terminal instead of crash-loop re-queueing
// it.
func TestPanicContainment(t *testing.T) {
	const panicSeed = 666
	// Control: the sibling workload on a pristine manager.
	ctrlStore := store.NewMem()
	ctrl := newStoreManager(t, ctrlStore)
	cj, err := ctrl.Submit(shortReq(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, cj, 60*time.Second); st.State != StateDone {
		t.Fatalf("control job ended %s: %s", st.State, st.Error)
	}
	control := resultBytes(t, cj)
	ctrl.Close()

	st := store.NewMem()
	m, err := NewManagerWithStore(2, 0, st, ChaosPanicSeed(panicSeed))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := m.Submit(shortReq(t, panicSeed))
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := m.Submit(shortReq(t, 21))
	if err != nil {
		t.Fatal(err)
	}

	vst := waitTerminal(t, victim, 60*time.Second)
	if vst.State != StateFailed {
		t.Fatalf("panic job ended %s, want failed", vst.State)
	}
	for _, marker := range []string{"injected replica panic", "panicked", "goroutine"} {
		if !strings.Contains(vst.Error, marker) {
			t.Errorf("panic job error lacks %q:\n%s", marker, vst.Error)
		}
	}
	rec, err := st.GetJob(victim.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != string(StateFailed) {
		t.Fatalf("stored panic record is %q, want failed", rec.State)
	}
	if !strings.Contains(rec.Error, "goroutine") {
		t.Errorf("stored record carries no stack trace:\n%s", rec.Error)
	}

	// The sibling is untouched by the panic: done, byte-identical to
	// the clean control.
	if sst := waitTerminal(t, sibling, 60*time.Second); sst.State != StateDone {
		t.Fatalf("sibling ended %s: %s", sst.State, sst.Error)
	}
	if got := resultBytes(t, sibling); !bytes.Equal(got, control) {
		t.Fatal("sibling result differs from the uninterrupted control")
	}
	m.Close()

	// Restart over the same store: the panic failure is terminal. The
	// job must come back failed — never re-queued into a crash loop.
	m2, err := NewManagerWithStore(2, 0, st, ChaosPanicSeed(panicSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rj, ok := m2.Get(victim.ID())
	if !ok {
		t.Fatalf("restart lost job %s", victim.ID())
	}
	if got := rj.Status().State; got != StateFailed {
		t.Fatalf("recovered panic job is %s, want failed", got)
	}
	if n := m2.RunsStarted(); n != 0 {
		t.Fatalf("recovery started %d runs; the failed panic job must not re-run", n)
	}
}

// A job past its manager-level duration budget lands in the distinct
// deadline_exceeded terminal state, with the deadline persisted.
func TestJobDeadlineExceeded(t *testing.T) {
	st := store.NewMem()
	m, err := NewManagerWithStore(1, 0, st, MaxJobDuration(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(slowReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	jst := waitTerminal(t, j, 30*time.Second)
	if jst.State != StateDeadlineExceeded {
		t.Fatalf("job ended %s (%s), want deadline_exceeded", jst.State, jst.Error)
	}
	if !strings.Contains(jst.Error, "deadline") {
		t.Fatalf("terminal error %q does not mention the deadline", jst.Error)
	}
	if jst.Deadline == 0 {
		t.Fatal("status carries no deadline")
	}
	rec, err := st.GetJob(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != string(StateDeadlineExceeded) {
		t.Fatalf("stored record is %q, want deadline_exceeded", rec.State)
	}
	if rec.Deadline == 0 {
		t.Fatal("stored record carries no deadline")
	}
}

// A request-level MaxDuration works without any server default, and a
// tighter server default wins over a looser request.
func TestRequestMaxDuration(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	req := slowReq(t, 2)
	req.MaxDuration = 50 * time.Millisecond
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if jst := waitTerminal(t, j, 30*time.Second); jst.State != StateDeadlineExceeded {
		t.Fatalf("job ended %s, want deadline_exceeded", jst.State)
	}

	capped := newMemManager(t, 1, 0, MaxJobDuration(50*time.Millisecond))
	defer capped.Close()
	req2 := slowReq(t, 3)
	req2.MaxDuration = time.Hour // looser than the server cap: ignored
	j2, err := capped.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	if jst := waitTerminal(t, j2, 30*time.Second); jst.State != StateDeadlineExceeded {
		t.Fatalf("capped job ended %s, want deadline_exceeded within the server cap", jst.State)
	}

	if _, err := m.Submit(Request{
		Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.51, 4)},
		Until: 5, Every: 1, MaxDuration: -time.Second,
	}); err == nil {
		t.Fatal("negative MaxDuration accepted")
	}
}

// The stored deadline is absolute: a crash-recovered job whose budget
// already ran out fails as deadline_exceeded on restart instead of
// being granted a fresh allowance.
func TestRecoveredJobHonorsRemainingBudget(t *testing.T) {
	st := store.NewMem()
	req := slowReq(t, 5)
	req.Replicas, req.Workers = 1, 1 // Submit's normalization, done by hand
	rawReq, hash, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	// A record the previous process left mid-run with a deadline
	// already in the past — as if the crash ate the whole budget.
	if err := st.PutJob(&store.JobRecord{
		ID: "job-1", Seq: 1, Hash: hash, State: string(StateRunning),
		Submitted: time.Now().Add(-time.Minute).UnixNano(),
		Deadline:  time.Now().Add(-time.Second).UnixNano(),
		Request:   rawReq,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerWithStore(1, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, ok := m.Get("job-1")
	if !ok {
		t.Fatal("recovery lost job-1")
	}
	jst := waitTerminal(t, j, 30*time.Second)
	if jst.State != StateDeadlineExceeded {
		t.Fatalf("recovered job ended %s (%s), want deadline_exceeded", jst.State, jst.Error)
	}
	// A terminal deadline_exceeded record then stays terminal across
	// the next boot.
	m.Close()
	m2, err := NewManagerWithStore(1, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j2, ok := m2.Get("job-1")
	if !ok {
		t.Fatal("second recovery lost job-1")
	}
	if got := j2.Status().State; got != StateDeadlineExceeded {
		t.Fatalf("re-recovered job is %s, want deadline_exceeded", got)
	}
	if n := m2.RunsStarted(); n != 0 {
		t.Fatalf("second boot started %d runs for a terminal job", n)
	}
}

// Per-job admission caps are permanent validation errors — rejected at
// Submit, never classified as transient overload.
func TestAdmissionCaps(t *testing.T) {
	m := newMemManager(t, 1, 0, MaxCells(100), MaxReplicas(4))
	defer m.Close()

	_, err := m.Submit(shortReq(t, 1)) // 24×24 = 576 cells > 100
	if err == nil {
		t.Fatal("over-cells submission accepted")
	}
	if !strings.Contains(err.Error(), "cells") {
		t.Fatalf("over-cells rejection says %q", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("cap rejection %q claims to be transient overload", err)
	}

	big := newMemManager(t, 1, 0, MaxReplicas(4))
	defer big.Close()
	req := shortReq(t, 2)
	req.Replicas = 8
	if _, err := big.Submit(req); err == nil {
		t.Fatal("over-replicas submission accepted")
	} else if !strings.Contains(err.Error(), "replicas") {
		t.Fatalf("over-replicas rejection says %q", err)
	}
	req.Replicas = 4
	j, err := big.Submit(req)
	if err != nil {
		t.Fatalf("at-cap submission rejected: %v", err)
	}
	waitTerminal(t, j, 60*time.Second)
}

// The aggregate cost budget sheds with ErrOverloaded while committed,
// and frees exactly the admitted job's share when it goes terminal.
func TestAggregateCostSheds(t *testing.T) {
	one := estimateCost(slowReq(t, 1), 1001) // slowReq grid: 1e9/1e6 + 1
	m := newMemManager(t, 1, 4, MaxActiveCost(one))
	defer m.Close()

	j, err := m.Submit(slowReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ActiveCost(); got != one {
		t.Fatalf("ActiveCost = %d after admission, want %d", got, one)
	}
	_, err = m.Submit(slowReq(t, 2))
	if err == nil {
		t.Fatal("over-budget submission accepted")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget rejection %q does not wrap ErrOverloaded", err)
	}

	j.Cancel()
	waitTerminal(t, j, 30*time.Second)
	if got := m.ActiveCost(); got != 0 {
		t.Fatalf("ActiveCost = %d after the job went terminal, want 0", got)
	}
	j2, err := m.Submit(slowReq(t, 2))
	if err != nil {
		t.Fatalf("submission after budget release rejected: %v", err)
	}
	j2.Cancel()
	waitTerminal(t, j2, 30*time.Second)
}

// Re-queued recovered jobs re-join the aggregate budget.
func TestRecoveryChargesActiveCost(t *testing.T) {
	st := store.NewMem()
	m := newStoreManager(t, st)
	j, err := m.Submit(slowReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning, 30*time.Second)
	m.Close() // leaves a resumable queued record

	m2, err := NewManagerWithStore(1, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	want := estimateCost(slowReq(t, 1), j.GridLen())
	if got := m2.ActiveCost(); got != want {
		t.Fatalf("recovered ActiveCost = %d, want %d", got, want)
	}
	rj, _ := m2.Get(j.ID())
	rj.Cancel()
	waitTerminal(t, rj, 30*time.Second)
	if got := m2.ActiveCost(); got != 0 {
		t.Fatalf("ActiveCost = %d after cancelling the recovered job, want 0", got)
	}
}
