package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parsurf"
	"parsurf/internal/job"
	"parsurf/internal/store"
)

// ziffSpec builds a small deterministic ZGB workload. y=0.51 sits in
// the reactive window, so replicas take real KMC steps.
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

// sweepReq is the canonical two-variant test sweep. Fresh specs per
// call so every manager owns its own.
func sweepReq(t *testing.T, replicas int) job.Request {
	t.Helper()
	return job.Request{
		Specs:    []*parsurf.SessionSpec{ziffSpec(t, 0.51, 42), ziffSpec(t, 0.53, 42)},
		Replicas: replicas,
		Workers:  2,
		Until:    5,
		Every:    1,
	}
}

// controlJSON runs the request on a plain single-node durable manager
// and returns the result's canonical JSON — the bytes every fleet
// layout must reproduce exactly.
func controlJSON(t *testing.T, req job.Request) string {
	t.Helper()
	m, err := job.NewManagerWithStore(2, 0, store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 60*time.Second); st.State != job.StateDone {
		t.Fatalf("control run: %s (%s)", st.State, st.Error)
	}
	res, err := j.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func waitTerminal(t *testing.T, j *job.Job, d time.Duration) job.Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(d):
		t.Fatalf("job %s still %s after %v", j.ID(), j.Status().State, d)
	}
	return j.Status()
}

// fleetManager wires a coordinator-executing durable manager over st.
func fleetManager(t *testing.T, st store.Store, c *Coordinator, runners int) *job.Manager {
	t.Helper()
	m, err := job.NewManagerWithStore(runners, 0, st, job.WithExecutor(c))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitLease polls the coordinator until a shard is granted.
func waitLease(t *testing.T, c *Coordinator, worker string, d time.Duration) *Grant {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if g, ok := c.Lease(context.Background(), worker, 0); ok {
			return g
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no lease for %s within %v", worker, d)
	return nil
}

// runGrant executes a grant's replica range in-process and returns the
// encoded wire payload — a worker without the HTTP plumbing.
func runGrant(t *testing.T, g *Grant) []byte {
	t.Helper()
	spec, err := parsurf.ParseSpec(g.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return runGrantAs(t, g, spec.Hash())
}

// runGrantAs is runGrant with the payload stamped with specHash.
func runGrantAs(t *testing.T, g *Grant, specHash string) []byte {
	t.Helper()
	spec, err := parsurf.ParseSpec(g.Spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parsurf.RunReplicaRange(context.Background(), spec, g.Variant, g.Lo, g.Hi,
		2, g.Until, g.Every)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Hi - g.Lo
	data, err := encodeShardResult(&ShardResult{
		Variant: g.Variant, Lo: g.Lo, Hi: g.Hi, SpecHash: specHash,
		Rows: rows, Steps: make([]uint64, n), Times: make([]float64, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A sweep distributed over two HTTP workers merges byte-identically to
// the single-node run, and the shard table is cleaned up after the
// terminal state.
func TestFleetEndToEnd(t *testing.T) {
	req := sweepReq(t, 5)
	want := controlJSON(t, sweepReq(t, 5))

	st := store.NewMem()
	coord, err := New(st, ShardSize(2), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 2)
	defer m.Close()
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan struct{}, 2)
	for i, w := range []*Worker{
		// One worker checkpoints aggressively to exercise the snapshot
		// hooks; the other runs bare.
		{ID: "w1", Coordinator: srv.URL, Workers: 2, Poll: 5 * time.Millisecond,
			Store: store.NewMem(), CheckpointEvery: time.Millisecond},
		{ID: "w2", Coordinator: srv.URL, Workers: 2, Poll: 5 * time.Millisecond},
	} {
		go func(i int, w *Worker) {
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			workerDone <- struct{}{}
		}(i, w)
	}

	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// While the fleet works, the job's status carries its shard table.
	sawShards := false
	for !sawShards {
		select {
		case <-j.Done():
			sawShards = true // job may finish before we catch a snapshot
		default:
			if len(j.Status().Shards) > 0 {
				sawShards = true
			} else {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}

	if st := waitTerminal(t, j, 60*time.Second); st.State != job.StateDone {
		t.Fatalf("fleet job: %s (%s)", st.State, st.Error)
	}
	res, err := j.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("fleet result differs from the single-node run")
	}

	// 2 variants × ceil(5/2) shards, every one delivered.
	counters := coord.Counters()
	if counters.ShardsDone != 6 {
		t.Errorf("ShardsDone %d, want 6", counters.ShardsDone)
	}
	if counters.Leases < 6 {
		t.Errorf("Leases %d, want >= 6", counters.Leases)
	}
	// Terminal jobs drop their shard state from the store.
	recs, err := st.Shards(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("%d shard records survived the terminal state", len(recs))
	}
	cancel()
	<-workerDone
	<-workerDone
}

// Satellite: the content hash ignores workers and shard layout, so a
// fleet-completed job answers a later local (non-fleet) resubmission
// straight from the cache.
func TestFleetResultFeedsLocalCache(t *testing.T) {
	st := store.NewMem()
	coord, err := New(st, ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	m := fleetManager(t, st, coord, 1)
	srv := httptest.NewServer(NewHandler(coord))
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{ID: "w1", Coordinator: srv.URL, Workers: 2, Poll: 5 * time.Millisecond}
	wDone := make(chan struct{})
	go func() { w.Run(ctx); close(wDone) }()

	j, err := m.Submit(sweepReq(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 60*time.Second); st.State != job.StateDone {
		t.Fatalf("fleet job: %s (%s)", st.State, st.Error)
	}
	want, err := j.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	cancel()
	<-wDone
	srv.Close()
	m.Close()
	coord.Close()

	// A plain local manager over the same store: the resubmission is
	// answered from the cache without running anything.
	local, err := job.NewManagerWithStore(1, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	hit, err := local.Submit(sweepReq(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	hst := hit.Status()
	if hst.State != job.StateDone || !hst.Cached {
		t.Fatalf("local resubmission %+v, want immediate cached done", hst)
	}
	if hit.Hash() != j.Hash() {
		t.Fatalf("fleet hash %s, local hash %s", j.Hash(), hit.Hash())
	}
	if n := local.RunsStarted(); n != 0 {
		t.Fatalf("local manager ran %d jobs answering a fleet-cached result", n)
	}
	got, err := hit.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON, _ := json.Marshal(got); string(gotJSON) != string(wantJSON) {
		t.Fatal("cached result differs from the fleet result")
	}
}

// Satellite: a worker that takes a lease and dies never blocks the job
// — the expiry sweeper re-queues the shard, a healthy worker finishes
// it, and the merged result is byte-identical to an uninterrupted run.
func TestLeaseExpiryRequeuesShard(t *testing.T) {
	req := sweepReq(t, 4)
	want := controlJSON(t, sweepReq(t, 4))

	st := store.NewMem()
	coord, err := New(st, ShardSize(2), LeaseTTL(60*time.Millisecond), MaxShardAttempts(10))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()

	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// The doomed worker leases a shard and is never heard from again.
	dead := waitLease(t, coord, "w-dead", 10*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for coord.Counters().Expiries == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lease on %s never expired", dead.Shard)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A healthy worker mops up everything, including the orphaned shard.
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{ID: "w-live", Coordinator: srv.URL, Workers: 2, Poll: 5 * time.Millisecond}
	wDone := make(chan struct{})
	go func() { w.Run(ctx); close(wDone) }()
	defer func() { cancel(); <-wDone }()

	if st := waitTerminal(t, j, 60*time.Second); st.State != job.StateDone {
		t.Fatalf("fleet job: %s (%s)", st.State, st.Error)
	}
	res, err := j.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("result after a lease expiry differs from the uninterrupted run")
	}
	c := coord.Counters()
	if c.Expiries < 1 || c.Requeues < 1 {
		t.Errorf("counters %+v, want at least one expiry and one requeue", c)
	}
}

// A shard that fails MaxAttempts workers is quarantined and the job
// fails, dropping its shard state.
func TestShardQuarantineFailsJob(t *testing.T) {
	st := store.NewMem()
	coord, err := New(st, ShardSize(4), MaxShardAttempts(2), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()

	j, err := m.Submit(job.Request{
		Specs:    []*parsurf.SessionSpec{ziffSpec(t, 0.51, 7)},
		Replicas: 4,
		Workers:  1,
		Until:    5,
		Every:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		g := waitLease(t, coord, "w-poisoned", 10*time.Second)
		jobID, shardID, err := SplitShardID(g.Shard)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Fail(jobID, shardID, "w-poisoned", "segfault in kernel"); err != nil {
			t.Fatalf("fail #%d: %v", attempt+1, err)
		}
	}
	stt := waitTerminal(t, j, 30*time.Second)
	if stt.State != job.StateFailed {
		t.Fatalf("job state %s, want failed", stt.State)
	}
	if !strings.Contains(stt.Error, "quarantined") {
		t.Fatalf("job error %q does not mention quarantine", stt.Error)
	}
	recs, err := st.Shards(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("%d shard records survived the failed job", len(recs))
	}
}

// Results are accepted from any worker (the payload is a pure function
// of the spec), duplicate uploads are idempotent, and a late failure
// report for a done shard is a no-op. Two shards, so the job is still
// executing while the duplicate and the late failure arrive.
func TestResultFromAnyWorkerAndIdempotence(t *testing.T) {
	st := store.NewMem()
	coord, err := New(st, ShardSize(2), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()

	j, err := m.Submit(job.Request{
		Specs:    []*parsurf.SessionSpec{ziffSpec(t, 0.51, 9)},
		Replicas: 4,
		Workers:  2,
		Until:    5,
		Every:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := waitLease(t, coord, "w-original", 10*time.Second)
	jobID, shardID, err := SplitShardID(g.Shard)
	if err != nil {
		t.Fatal(err)
	}
	data := runGrant(t, g)
	// A different worker delivers the result (the original's lease
	// expired from its point of view, say) — accepted.
	if err := coord.Result(jobID, shardID, "w-late", data); err != nil {
		t.Fatalf("result from a non-leaseholder: %v", err)
	}
	// The original uploads the same bytes — idempotent success.
	if err := coord.Result(jobID, shardID, "w-original", data); err != nil {
		t.Fatalf("duplicate result: %v", err)
	}
	// A failure report racing in after the result loses quietly.
	if err := coord.Fail(jobID, shardID, "w-original", "too late"); err != nil {
		t.Fatalf("fail after done: %v", err)
	}
	g2 := waitLease(t, coord, "w-original", 10*time.Second)
	_, shardID2, err := SplitShardID(g2.Shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Result(jobID, shardID2, "w-original", runGrant(t, g2)); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st.State != job.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
}

// A mismatched payload (wrong shard geometry) is rejected without
// touching the accumulator.
func TestResultRejectsMismatchedPayload(t *testing.T) {
	st := store.NewMem()
	coord, err := New(st, ShardSize(2), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()

	j, err := m.Submit(sweepReq(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	g := waitLease(t, coord, "w1", 10*time.Second)
	jobID, shardID, err := SplitShardID(g.Shard)
	if err != nil {
		t.Fatal(err)
	}
	data := runGrant(t, g)
	// Post the payload under a different shard of the same job.
	otherID := shardID
	for _, sid := range []string{"v0-0-2", "v0-2-4", "v1-0-2", "v1-2-4"} {
		if sid != shardID {
			otherID = sid
			break
		}
	}
	err = coord.Result(jobID, otherID, "w1", data)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatched payload: %v, want a mismatch error", err)
	}
	j.Cancel()
	waitTerminal(t, j, 30*time.Second)
}

// Rows stamped with another spec hash — a worker that ran the spec at
// another epoch of its engine, or another spec — are refused, both on
// upload and when a restarted coordinator replays stored results: the
// shard is re-run instead of merged.
func TestResultRejectsOtherSpecHash(t *testing.T) {
	mkReq := func() job.Request {
		return job.Request{
			Specs:    []*parsurf.SessionSpec{ziffSpec(t, 0.51, 13)},
			Replicas: 4,
			Workers:  2,
			Until:    5,
			Every:    1,
		}
	}
	want := controlJSON(t, mkReq())
	other := ziffSpec(t, 0.51, 14).Hash()

	st := store.NewMem()
	coordA, err := New(st, ShardSize(2), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	mA := fleetManager(t, st, coordA, 1)
	j, err := mA.Submit(mkReq())
	if err != nil {
		t.Fatal(err)
	}
	jobID := j.ID()
	g := waitLease(t, coordA, "w1", 10*time.Second)
	_, shardID, err := SplitShardID(g.Shard)
	if err != nil {
		t.Fatal(err)
	}
	stale := runGrantAs(t, g, other)
	err = coordA.Result(jobID, shardID, "w1", stale)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("result stamped with another spec hash: %v, want a mismatch error", err)
	}
	mA.Close()
	coordA.Close()

	// Plant the stale rows as this shard's stored, done result, then
	// restart: recovery must re-run the shard rather than replay them.
	if err := st.PutShardResult(jobID, shardID, stale); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Shards(jobID)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.ID == shardID {
			rec.State = shardDone
			if err := st.PutShard(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	coordB, err := New(st, ShardSize(2), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coordB.Close()
	mB := fleetManager(t, st, coordB, 1)
	defer mB.Close()
	jB, ok := mB.Get(jobID)
	if !ok {
		t.Fatalf("job %s not recovered", jobID)
	}
	leased := map[string]bool{}
	for range 2 {
		g := waitLease(t, coordB, "w2", 10*time.Second)
		_, sid, err := SplitShardID(g.Shard)
		if err != nil {
			t.Fatal(err)
		}
		leased[sid] = true
		if err := coordB.Result(jobID, sid, "w2", runGrant(t, g)); err != nil {
			t.Fatal(err)
		}
	}
	if !leased[shardID] {
		t.Fatalf("shard %s with stale stored rows was replayed, not re-run (leased %v)", shardID, leased)
	}
	if st := waitTerminal(t, jB, 30*time.Second); st.State != job.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	res, err := jB.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("recovered fleet result differs from the single-node run")
	}
}

// A restarted coordinator+manager pair rebuilds the shard table from
// the store: shards recorded done replay their stored payloads instead
// of re-running, and only the unfinished remainder is leased out again.
// The final result is byte-identical to the single-node run.
func TestCoordinatorRecoveryReplaysDoneShards(t *testing.T) {
	mkReq := func() job.Request {
		return job.Request{
			Specs:    []*parsurf.SessionSpec{ziffSpec(t, 0.51, 11)},
			Replicas: 4,
			Workers:  2,
			Until:    5,
			Every:    1,
		}
	}
	want := controlJSON(t, mkReq())

	st := store.NewMem()
	coordA, err := New(st, ShardSize(2), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	mA := fleetManager(t, st, coordA, 1)
	j, err := mA.Submit(mkReq())
	if err != nil {
		t.Fatal(err)
	}
	jobID := j.ID()
	// Finish exactly one of the two shards, then crash the node
	// (shutdown keeps the shard table: the job re-queues).
	g := waitLease(t, coordA, "w1", 10*time.Second)
	_, shardID, err := SplitShardID(g.Shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := coordA.Result(jobID, shardID, "w1", runGrant(t, g)); err != nil {
		t.Fatal(err)
	}
	mA.Close()
	coordA.Close()
	recs, err := st.Shards(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d shard records survived shutdown, want 2", len(recs))
	}

	// Restart: recovery re-queues the job, the done shard replays from
	// its stored blob, and only the other shard is ever leased again.
	coordB, err := New(st, ShardSize(2), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coordB.Close()
	mB := fleetManager(t, st, coordB, 1)
	defer mB.Close()
	j2, ok := mB.Get(jobID)
	if !ok {
		t.Fatalf("job %s not recovered", jobID)
	}
	g2 := waitLease(t, coordB, "w2", 10*time.Second)
	if g2.Shard == g.Shard {
		t.Fatalf("recovery re-leased the done shard %s", g.Shard)
	}
	_, shardID2, err := SplitShardID(g2.Shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := coordB.Result(jobID, shardID2, "w2", runGrant(t, g2)); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j2, 60*time.Second); st.State != job.StateDone {
		t.Fatalf("recovered job: %s (%s)", st.State, st.Error)
	}
	if n := coordB.Counters().Leases; n != 1 {
		t.Errorf("restarted coordinator granted %d leases, want 1", n)
	}
	res, err := j2.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("recovered fleet result differs from the single-node run")
	}
}

// heartbeatGate is a worker transport that fails heartbeat calls while
// blocked, so the coordinator expires the worker's lease mid-shard.
type heartbeatGate struct {
	blocked atomic.Bool
}

func (g *heartbeatGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.blocked.Load() && strings.HasSuffix(req.URL.Path, "/heartbeat") {
		return nil, errors.New("heartbeat blocked")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// A worker that loses its lease mid-shard keeps its local replica
// snapshots; its next lease of the same shard resumes replicas from
// them instead of re-running from zero, and the merged result is
// byte-identical to the single-node run.
func TestWorkerResumesShardAfterLostLease(t *testing.T) {
	mkReq := func() job.Request {
		spec, err := parsurf.NewSpec(
			parsurf.WithLattice(32, 32),
			parsurf.WithEngine("ziff", parsurf.COFraction(0.5)),
			parsurf.WithSeed(3),
		)
		if err != nil {
			t.Fatal(err)
		}
		// About a third of a second per replica: several lease TTLs.
		return job.Request{Specs: []*parsurf.SessionSpec{spec}, Replicas: 2, Workers: 2, Until: 4000, Every: 5}
	}
	want := controlJSON(t, mkReq())

	st := store.NewMem()
	// A short TTL so the lease expires mid-shard; a generous attempt
	// budget because a slow (race-instrumented) run may lose the lease
	// again later, and every loss must resume rather than quarantine.
	coord, err := New(st, ShardSize(2), LeaseTTL(60*time.Millisecond), MaxShardAttempts(100))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()

	gate := &heartbeatGate{}
	gate.blocked.Store(true)
	var resumed atomic.Int64
	w := &Worker{ID: "w1", Coordinator: srv.URL, Workers: 2, Poll: 5 * time.Millisecond,
		Store: store.NewMem(), CheckpointEvery: time.Millisecond,
		Client: &http.Client{Transport: gate, Timeout: time.Minute},
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "worker %s: resuming replica") {
				resumed.Add(1)
			}
		}}
	ctx, cancel := context.WithCancel(context.Background())
	wDone := make(chan struct{})
	go func() { w.Run(ctx); close(wDone) }()
	defer func() { cancel(); <-wDone }()

	j, err := m.Submit(mkReq())
	if err != nil {
		t.Fatal(err)
	}
	// With its heartbeats failing, the worker's lease expires while its
	// replicas run and snapshot.
	deadline := time.Now().Add(30 * time.Second)
	for coord.Counters().Expiries == 0 {
		if j.Status().State.Terminal() {
			t.Fatal("job finished before the worker lost its lease")
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker's lease never expired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The next heartbeat gets 410: the worker abandons the shard, leases
	// it again and resumes from its snapshots.
	gate.blocked.Store(false)
	if st := waitTerminal(t, j, 60*time.Second); st.State != job.StateDone {
		t.Fatalf("fleet job: %s (%s)", st.State, st.Error)
	}
	if resumed.Load() == 0 {
		t.Fatal("the re-leased shard resumed no replica from the worker's snapshots")
	}
	res, err := j.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("result after a lost lease and resume differs from the single-node run")
	}
}
