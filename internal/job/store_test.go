package job

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"parsurf"
	"parsurf/internal/store"
)

// shortReq is a quick deterministic workload for durability tests.
func shortReq(t *testing.T, seed uint64) Request {
	t.Helper()
	return Request{
		Specs:    []*parsurf.SessionSpec{ziffSpec(t, 0.51, seed)},
		Replicas: 3,
		Workers:  2,
		Until:    5,
		Every:    1,
	}
}

func newStoreManager(t *testing.T, st store.Store) *Manager {
	t.Helper()
	m, err := NewManagerWithStore(2, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A submission is persisted before Submit acknowledges it.
func TestSubmitPersistsBeforeAck(t *testing.T) {
	st := store.NewMem()
	m := newStoreManager(t, st)
	defer m.Close()
	j, err := m.Submit(shortReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.GetJob(j.ID())
	if err != nil {
		t.Fatalf("no record right after Submit: %v", err)
	}
	if rec.Hash == "" || rec.Hash != j.Hash() {
		t.Fatalf("record hash %q, job hash %q", rec.Hash, j.Hash())
	}
	if len(rec.Request) == 0 {
		t.Fatal("record carries no request")
	}
	waitTerminal(t, j, 30*time.Second)
	rec, err = st.GetJob(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != string(StateDone) {
		t.Fatalf("terminal record state %q, want done", rec.State)
	}
	if _, err := st.GetResult(rec.Hash); err != nil {
		t.Fatalf("no result blob under %s: %v", rec.Hash, err)
	}
}

// A submission whose record cannot be written is rejected with the store
// error before the job can reach a runner: nothing is listed, nothing
// runs, and its ID is never handed out again. (Until the queued record
// was written ahead of the enqueue, an idle runner could dequeue and
// finish the job while that write was still in flight.)
func TestSubmitPersistFailureRacesRunner(t *testing.T) {
	faulty := store.New(&store.Faulty{Backend: new(store.Mem), Hook: func(n int, op string) error {
		if op == "put-job" && n == 1 {
			return store.ErrInjected // Submit's queued record
		}
		return nil
	}})
	m, err := NewManagerWithStore(1, 0, faulty)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(shortReq(t, 1)); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("Submit error %v, want the injected store error", err)
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submission is listed: %d jobs", len(jobs))
	}
	if n := m.RunsStarted(); n != 0 {
		t.Fatalf("rejected submission ran (RunsStarted %d)", n)
	}
	// The failed write's ID is never handed out again: the next
	// submission takes the one after it.
	j, err := m.Submit(shortReq(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-2" {
		t.Fatalf("next submission got %s, want job-2", j.ID())
	}
	if _, ok := m.Get("job-1"); ok {
		t.Fatal("the rejected submission's ID resolves to a job")
	}
	if jobs := m.Jobs(); len(jobs) != 1 || jobs[0].ID() != "job-2" {
		t.Fatalf("Jobs() lists %d jobs, want only job-2", len(jobs))
	}
}

// The queued record lands before the runner can write "running": while
// the job runs, its stored record never reads queued. The hook stalls
// Submit's record write whenever the job was already charged to the
// admission budget — that is, enqueued ahead of its record — until the
// runner's "running" record has landed, which would make the late
// "queued" write overwrite it.
func TestQueuedRecordPrecedesRunning(t *testing.T) {
	mem := new(store.Mem)
	raw := store.New(mem)
	var m *Manager
	st := store.New(&store.Faulty{Backend: mem, Hook: func(n int, op string) error {
		if op != "put-job" || n != 1 || m.ActiveCost() == 0 {
			return nil
		}
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if rec, err := raw.GetJob("job-1"); err == nil && rec.State == string(StateRunning) {
				break
			}
		}
		return nil
	}})
	m = newStoreManager(t, st)
	defer m.Close()
	j, err := m.Submit(Request{
		Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.51, 3)},
		Until: 1e9, Every: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Cancel()
	var rec *store.JobRecord
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if rec, err = raw.GetJob(j.ID()); err != nil {
			t.Fatal(err)
		}
		if rec.State == string(StateRunning) {
			break
		}
	}
	if s := j.Status().State; s != StateRunning {
		t.Fatalf("job %s, want running", s)
	}
	if rec.State != string(StateRunning) {
		t.Fatalf("stored record reads %q while the job runs, want running", rec.State)
	}
}

// The last state set is the last state written. The hook holds the
// runner's "running" record write until a concurrent Cancel has set the
// job cancelled; the released "running" write must not overwrite the
// cancelled record, or the next boot would re-run a cancelled job.
func TestCancelOutlivesLateRunningWrite(t *testing.T) {
	mem := new(store.Mem)
	var (
		m       *Manager
		once    sync.Once
		held    = make(chan struct{})
		release = make(chan struct{})
	)
	st := store.New(&store.Faulty{Backend: mem, Hook: func(n int, op string) error {
		if op != "put-job" || m.RunsStarted() == 0 {
			return nil
		}
		first := false
		once.Do(func() { first = true; close(held) })
		if first {
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
		}
		return nil
	}})
	m = newStoreManager(t, st)
	defer m.Close()
	j, err := m.Submit(Request{
		Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.51, 5)},
		Until: 1e9, Every: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the runner never wrote its running record")
	}
	cancelled := make(chan struct{})
	go func() {
		j.Cancel()
		close(cancelled)
	}()
	for deadline := time.Now().Add(10 * time.Second); j.Status().State != StateCancelled; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s after Cancel, want cancelled", j.Status().State)
		}
	}
	close(release)
	<-cancelled
	m.Close() // the runner is done with the job: the held write has landed
	rec, err := store.New(mem).GetJob(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != string(StateCancelled) {
		t.Fatalf("stored record %q after Cancel, want cancelled", rec.State)
	}
}

// A resubmission with a matching content hash is answered done from the
// cache without running; nocache forces the run; a different workload
// misses.
func TestResultCacheHitMissAndOptOut(t *testing.T) {
	st := store.NewMem()
	m := newStoreManager(t, st)
	defer m.Close()

	first, err := m.Submit(shortReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, first, 30*time.Second); st.State != StateDone {
		t.Fatalf("first run: %s (%s)", st.State, st.Error)
	}
	if n := m.RunsStarted(); n != 1 {
		t.Fatalf("RunsStarted %d after one job", n)
	}
	want, err := first.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	// Hit: identical workload, instant done, no run.
	hit, err := m.Submit(shortReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	hst := hit.Status()
	if hst.State != StateDone || !hst.Cached {
		t.Fatalf("resubmission status %+v, want immediate cached done", hst)
	}
	if hit.ID() == first.ID() {
		t.Fatal("cache hit reused the original job id")
	}
	if hit.Hash() != first.Hash() {
		t.Fatalf("hashes differ: %s vs %s", hit.Hash(), first.Hash())
	}
	if n := m.RunsStarted(); n != 1 {
		t.Fatalf("cache hit ran the simulation (RunsStarted %d)", n)
	}
	got, err := hit.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("cached result differs from the original")
	}

	// Opt-out: nocache re-runs even though the hash matches.
	req := shortReq(t, 1)
	req.NoCache = true
	fresh, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Status().Cached {
		t.Fatal("nocache submission served from cache")
	}
	if st := waitTerminal(t, fresh, 30*time.Second); st.State != StateDone {
		t.Fatalf("nocache run: %s (%s)", st.State, st.Error)
	}
	if n := m.RunsStarted(); n != 2 {
		t.Fatalf("RunsStarted %d after nocache resubmission, want 2", n)
	}
	freshRes, err := fresh.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, err := json.Marshal(freshRes)
	if err != nil {
		t.Fatal(err)
	}
	if string(freshJSON) != string(wantJSON) {
		t.Fatal("nocache re-run not bit-identical to the cached result (determinism broken)")
	}

	// Miss: a different seed is a different hash and a real run.
	miss, err := m.Submit(shortReq(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if miss.Hash() == first.Hash() {
		t.Fatal("different workloads share a hash")
	}
	if miss.Status().Cached {
		t.Fatal("different workload served from cache")
	}
	waitTerminal(t, miss, 30*time.Second)
}

// Workers only sets goroutine fan-out and results are bit-identical
// across worker counts, so it is excluded from the content hash.
func TestHashIgnoresWorkers(t *testing.T) {
	a := shortReq(t, 1)
	b := shortReq(t, 1)
	b.Workers = 7
	_, ha, err := encodeRequest(a)
	if err != nil {
		t.Fatal(err)
	}
	_, hb, err := encodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("worker count changed the hash: %s vs %s", ha, hb)
	}
	c := shortReq(t, 1)
	c.Replicas++
	if _, hc, _ := encodeRequest(c); hc == ha {
		t.Fatal("replica count did not change the hash")
	}
}

// A completed job survives restart: the recovered manager serves the
// byte-identical result from disk, and a same-hash resubmission is an
// instant cache hit with zero runs.
func TestRecoveryServesCompletedResults(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := newStoreManager(t, st1)
	j1, err := m1.Submit(shortReq(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j1, 30*time.Second); st.State != StateDone {
		t.Fatalf("first run: %s (%s)", st.State, st.Error)
	}
	res1, err := j1.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res1)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()

	st2, err := store.OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := newStoreManager(t, st2)
	defer m2.Close()
	j2, ok := m2.Get(j1.ID())
	if !ok {
		t.Fatalf("job %s not recovered", j1.ID())
	}
	if s := j2.Status(); s.State != StateDone || s.Hash != j1.Hash() {
		t.Fatalf("recovered status %+v", s)
	}
	res2, err := j2.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("recovered result not byte-identical to the original")
	}

	hit, err := m2.Submit(shortReq(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if s := hit.Status(); s.State != StateDone || !s.Cached {
		t.Fatalf("post-restart resubmission %+v, want cached done", s)
	}
	if n := m2.RunsStarted(); n != 0 {
		t.Fatalf("recovered manager ran %d jobs for a cached workload", n)
	}
}

// A job whose record a crash left at "running" is re-queued on boot and
// completes with Mean/Std bit-identical to an uninterrupted run of the
// same (spec, seed).
func TestRecoveryRequeuesInterruptedJob(t *testing.T) {
	req := shortReq(t, 4)
	raw, hash, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMem()
	// The record a killed process leaves behind: mid-run, no result.
	if err := st.PutJob(&store.JobRecord{
		ID: "job-1", Seq: 1, Hash: hash, State: string(StateRunning),
		Submitted: time.Now().UnixNano(), Request: raw,
	}); err != nil {
		t.Fatal(err)
	}

	m := newStoreManager(t, st)
	defer m.Close()
	j, ok := m.Get("job-1")
	if !ok {
		t.Fatal("interrupted job not recovered")
	}
	if s := waitTerminal(t, j, 30*time.Second); s.State != StateDone {
		t.Fatalf("re-queued job: %s (%s)", s.State, s.Error)
	}
	if n := m.RunsStarted(); n != 1 {
		t.Fatalf("RunsStarted %d, want 1 (the re-queued run)", n)
	}
	res, err := j.ResultData()
	if err != nil {
		t.Fatal(err)
	}

	// The uninterrupted reference: same spec, same shape, straight
	// through the sweep runner.
	ens, err := parsurf.RunSweep(t.Context(), req.Specs, req.Replicas, req.Workers, req.Until, req.Every)
	if err != nil {
		t.Fatal(err)
	}
	for sp := range ens[0].Mean {
		for k, x := range ens[0].Mean[sp].X {
			if res.Variants[0].Mean[sp][k] != x {
				t.Fatalf("Mean[%d][%d] differs after recovery: %v vs %v", sp, k, res.Variants[0].Mean[sp][k], x)
			}
			if res.Variants[0].Std[sp][k] != ens[0].Std[sp].X[k] {
				t.Fatalf("Std[%d][%d] differs after recovery", sp, k)
			}
		}
	}

	rec, err := st.GetJob("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != string(StateDone) {
		t.Fatalf("record state %q after completion", rec.State)
	}
	if _, err := st.GetResult(hash); err != nil {
		t.Fatalf("no result blob after recovery run: %v", err)
	}
}

// Manager shutdown (Close) leaves interrupted jobs resumable on disk;
// a user Cancel persists as cancelled and stays cancelled on restart.
func TestShutdownResumableCancelSticky(t *testing.T) {
	st := store.NewMem()
	m1 := newStoreManager(t, st)

	long := func(seed uint64) Request {
		return Request{
			Specs: []*parsurf.SessionSpec{ziffSpec(t, 0.51, seed)},
			Until: 1e9, Every: 1e6,
		}
	}
	interrupted, err := m1.Submit(long(1))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := m1.Submit(long(2))
	if err != nil {
		t.Fatal(err)
	}
	cancelled.Cancel()
	m1.Close() // aborts the running job

	rec, err := st.GetJob(interrupted.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != string(StateQueued) {
		t.Fatalf("interrupted record %q after shutdown, want queued", rec.State)
	}
	rec, err = st.GetJob(cancelled.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != string(StateCancelled) {
		t.Fatalf("cancelled record %q, want cancelled", rec.State)
	}

	m2 := newStoreManager(t, st)
	defer m2.Close()
	if j, ok := m2.Get(cancelled.ID()); !ok || j.Status().State != StateCancelled {
		t.Fatal("user-cancelled job did not stay cancelled across restart")
	}
	j, ok := m2.Get(interrupted.ID())
	if !ok {
		t.Fatal("interrupted job not recovered")
	}
	if s := j.Status().State; s.Terminal() {
		t.Fatalf("interrupted job recovered terminal (%s), want re-queued", s)
	}
	j.Cancel() // let m2.Close return promptly
}

// Recovery rebuilds the listing in submission order even though the
// store lists records in arbitrary (map) order.
func TestJobsOrderedAfterRecovery(t *testing.T) {
	st := store.NewMem()
	m1 := newStoreManager(t, st)
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := m1.Submit(shortReq(t, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
		waitTerminal(t, j, 30*time.Second)
	}
	m1.Close()

	m2 := newStoreManager(t, st)
	defer m2.Close()
	jobs := m2.Jobs()
	if len(jobs) != len(ids) {
		t.Fatalf("recovered %d jobs, want %d", len(jobs), len(ids))
	}
	for i, j := range jobs {
		if j.ID() != ids[i] {
			t.Fatalf("recovered order %v at %d, want %v", j.ID(), i, ids[i])
		}
	}
	// New submissions continue the id sequence past the recovered max.
	j, err := m2.Submit(shortReq(t, 99))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-6" {
		t.Fatalf("post-recovery id %s, want job-6", j.ID())
	}
	waitTerminal(t, j, 30*time.Second)
}

// A corrupt record no longer takes down the whole boot: recovery
// quarantines it — visible in the table with its decode error, terminal
// from birth, never run — and the manager comes up for everything else.
func TestRecoveryQuarantinesCorruptRecord(t *testing.T) {
	st := store.NewMem()
	if err := st.PutJob(&store.JobRecord{
		ID: "job-1", Seq: 1, State: string(StateQueued),
		Request: json.RawMessage(`{"specs": ["not a spec"]}`),
	}); err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerWithStore(1, 0, st)
	if err != nil {
		t.Fatalf("corrupt record failed the boot: %v", err)
	}
	defer m.Close()
	j, ok := m.Get("job-1")
	if !ok {
		t.Fatal("quarantined job missing from the table")
	}
	status := j.Status()
	if status.State != StateQuarantined {
		t.Fatalf("state %s, want quarantined", status.State)
	}
	if status.Error == "" {
		t.Fatal("quarantined job carries no error")
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("quarantined job is not terminal")
	}
	// The quarantine persisted: a second boot sees it terminal, no
	// re-quarantine dance.
	rec, err := st.GetJob("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if State(rec.State) != StateQuarantined || rec.Error == "" {
		t.Fatalf("persisted record %+v, want quarantined with error", rec)
	}
	if m.RunsStarted() != 0 {
		t.Fatalf("quarantined job ran %d times", m.RunsStarted())
	}
}
