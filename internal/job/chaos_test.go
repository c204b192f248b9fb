package job

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"parsurf"
	"parsurf/internal/persist"
	"parsurf/internal/store"
)

// chaosSpec is a slower workload than the unit-test ziffSpec: a bigger
// lattice and a long horizon make the run last seconds, so kills land
// mid-trajectory.
func chaosSpec(t *testing.T, seed uint64) *parsurf.SessionSpec {
	t.Helper()
	spec, err := parsurf.NewSpec(
		parsurf.WithLattice(40, 40),
		parsurf.WithEngine("ziff", parsurf.COFraction(0.51)),
		parsurf.WithSeed(seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// chaosReq is a workload long enough to survive several kill/restart
// cycles: a fine grid gives the checkpointer many snapshot points.
func chaosReq(t *testing.T) Request {
	t.Helper()
	return Request{
		Specs:    []*parsurf.SessionSpec{chaosSpec(t, 7)},
		Replicas: 3,
		Workers:  2,
		Until:    2000,
		Every:    2,
	}
}

// resultBytes marshals a done job's stored result.
func resultBytes(t *testing.T, j *Job) []byte {
	t.Helper()
	res, err := j.ResultData()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The chaos harness: run the same workload twice — once uninterrupted,
// once through repeated mid-run manager kills at random points, each
// restart resuming replicas from their stored checkpoints — and require
// the two results byte-identical. This is the end-to-end guarantee the
// whole checkpoint stack exists for: preemption is invisible in the
// output.
func TestChaosKillResumeByteIdentical(t *testing.T) {
	req := chaosReq(t)

	// Uninterrupted control.
	control := newStoreManager(t, store.NewMem())
	cj, err := control.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, cj, 120*time.Second); st.State != StateDone {
		t.Fatalf("control run: %s (%s)", st.State, st.Error)
	}
	want := resultBytes(t, cj)
	control.Close()

	// Chaos runs: a shared store survives each "process"; the manager
	// is the process stand-in, and Close — which abandons running
	// replicas mid-trajectory — is the kill.
	st := store.NewMem()
	rng := rand.New(rand.NewSource(1))
	const kills = 8 // bounded so the test ends even under race slowdown
	var (
		final      *Job
		sawResume  bool
		killCycles int
	)
	for cycle := 0; final == nil; cycle++ {
		m, err := NewManagerWithStore(2, 0, st, CheckpointEvery(time.Millisecond))
		if err != nil {
			t.Fatalf("cycle %d: reboot failed: %v", cycle, err)
		}
		var j *Job
		if cycle == 0 {
			if j, err = m.Submit(req); err != nil {
				t.Fatal(err)
			}
		} else {
			var ok bool
			if j, ok = m.Get("job-1"); !ok {
				t.Fatalf("cycle %d: job lost across restart", cycle)
			}
		}
		if j.Status().Resumed > 0 {
			sawResume = true
		}
		if killCycles >= kills || j.Status().State.Terminal() {
			// Kill budget spent (or the job beat the killer): let this
			// last boot run to completion undisturbed.
			final = j
			defer m.Close()
			break
		}
		// Let the run make progress for a random slice, insisting the
		// first cycle leaves snapshots behind so later cycles actually
		// exercise resume (not just restart-from-zero).
		deadline := time.Now().Add(time.Duration(30+rng.Intn(200)) * time.Millisecond)
		for time.Now().Before(deadline) || !snapshotsExist(t, st, j.Hash()) {
			if j.Status().State.Terminal() {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if j.Status().Resumed > 0 {
			sawResume = true
		}
		if j.Status().State.Terminal() {
			final = j
			defer m.Close()
			break
		}
		m.Close() // kill: running replicas abandoned mid-trajectory
		killCycles++

		// The record must have stayed resumable, never regressed to a
		// from-zero terminal state.
		rec, err := st.GetJob(j.ID())
		if err != nil {
			t.Fatal(err)
		}
		if State(rec.State) != StateQueued {
			t.Fatalf("cycle %d: record %s after kill, want queued", cycle, rec.State)
		}
	}
	if st := waitTerminal(t, final, 120*time.Second); st.State != StateDone {
		t.Fatalf("chaos run: %s (%s)", st.State, st.Error)
	}
	if final.Status().Resumed > 0 {
		sawResume = true
	}
	if killCycles == 0 {
		t.Fatal("job completed before any kill; chaos never happened")
	}
	if !sawResume {
		t.Fatal("no replica ever resumed from a checkpoint across the kills")
	}
	if got := resultBytes(t, final); !bytes.Equal(got, want) {
		t.Fatalf("result after %d kills differs from the uninterrupted run:\n got %d bytes\nwant %d bytes", killCycles, len(got), len(want))
	}
}

// snapshotsExist reports whether any replica checkpoint is stored for
// the hash.
func snapshotsExist(t *testing.T, st store.Store, hash string) bool {
	t.Helper()
	if hash == "" {
		return false
	}
	slots, err := st.Checkpoints(hash)
	if err != nil {
		t.Fatal(err)
	}
	return len(slots) > 0
}

// A store that fails every checkpoint write degrades the manager to
// exactly the no-checkpoint behavior: the job still runs to the correct
// completion, and nothing is stored to resume from.
func TestCheckpointWriteFailuresAreHarmless(t *testing.T) {
	faulty := store.New(&store.Faulty{Backend: new(store.Mem), Hook: store.FailOps("put-checkpoint", 0)})
	m, err := NewManagerWithStore(1, 0, faulty, CheckpointEvery(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(shortReq(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 60*time.Second); st.State != StateDone {
		t.Fatalf("job under checkpoint faults: %s (%s)", st.State, st.Error)
	}
	if slots, _ := faulty.Checkpoints(j.Hash()); len(slots) != 0 {
		t.Fatalf("injected-failure store holds %d checkpoints", len(slots))
	}
}

// A torn checkpoint blob is skipped — the replica silently runs from
// zero — and the result is still byte-identical to the uninterrupted
// control: a checkpoint is an optimization, never a correctness
// dependency.
func TestTornCheckpointFallsBackToFreshRun(t *testing.T) {
	req := Request{
		Specs:    []*parsurf.SessionSpec{chaosSpec(t, 5)},
		Replicas: 2,
		Workers:  2,
		Until:    2000,
		Every:    2,
	}

	control := newStoreManager(t, store.NewMem())
	cj, err := control.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, cj, 60*time.Second); st.State != StateDone {
		t.Fatalf("control run: %s (%s)", st.State, st.Error)
	}
	want := resultBytes(t, cj)
	control.Close()

	st := store.NewMem()
	m1, err := NewManagerWithStore(1, 0, st, CheckpointEvery(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	for !snapshotsExist(t, st, j1.Hash()) && !j1.Status().State.Terminal() {
		time.Sleep(2 * time.Millisecond)
	}
	m1.Close()

	// Tear every stored snapshot.
	slots, err := st.Checkpoints(j1.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) == 0 {
		t.Skip("job finished before any checkpoint; nothing to tear")
	}
	for _, slot := range slots {
		data, err := st.GetCheckpoint(j1.Hash(), slot)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutCheckpoint(j1.Hash(), slot, data[:len(data)/2]); err != nil {
			t.Fatal(err)
		}
	}

	m2, err := NewManagerWithStore(1, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j2, ok := m2.Get(j1.ID())
	if !ok {
		t.Fatal("job lost across restart")
	}
	fst := waitTerminal(t, j2, 60*time.Second)
	if fst.State != StateDone {
		t.Fatalf("run over torn checkpoints: %s (%s)", fst.State, fst.Error)
	}
	if fst.Resumed != 0 {
		t.Fatalf("%d replicas resumed from torn checkpoints", fst.Resumed)
	}
	if got := resultBytes(t, j2); !bytes.Equal(got, want) {
		t.Fatal("result over torn checkpoints differs from control")
	}
}

// A record found mid-run on boot charges one attempt; at the attempt
// budget the job is quarantined as poison instead of crash-looping the
// service.
func TestCrashLoopQuarantine(t *testing.T) {
	req := shortReq(t, 9)
	raw, hash, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	running := func(attempts int) *store.JobRecord {
		return &store.JobRecord{
			ID: "job-1", Seq: 1, Hash: hash, State: string(StateRunning),
			Attempts: attempts, Submitted: 1, Request: raw,
		}
	}

	// Under the budget: re-queued with the attempt charged, and the job
	// eventually completes.
	st := store.NewMem()
	if err := st.PutJob(running(0)); err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerWithStore(1, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := m.Get("job-1")
	if !ok {
		t.Fatal("recovered job missing")
	}
	if j.Status().Attempts != 1 {
		t.Fatalf("attempts %d after one crash, want 1", j.Status().Attempts)
	}
	if st := waitTerminal(t, j, 60*time.Second); st.State != StateDone {
		t.Fatalf("crash survivor: %s (%s)", st.State, st.Error)
	}
	m.Close()

	// At the budget: quarantined, never run.
	st2 := store.NewMem()
	if err := st2.PutJob(running(DefaultMaxAttempts - 1)); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManagerWithStore(1, 0, st2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j2, _ := m2.Get("job-1")
	status := j2.Status()
	if status.State != StateQuarantined {
		t.Fatalf("state %s after %d crashes, want quarantined", status.State, DefaultMaxAttempts)
	}
	if _, err := j2.ResultData(); err == nil {
		t.Fatal("quarantined job served a result")
	}
	if m2.RunsStarted() != 0 {
		t.Fatal("quarantined job ran")
	}
	rec, err := st2.GetJob("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if State(rec.State) != StateQuarantined {
		t.Fatalf("persisted state %s, want quarantined", rec.State)
	}

	// A tighter budget quarantines sooner.
	st3 := store.NewMem()
	if err := st3.PutJob(running(0)); err != nil {
		t.Fatal(err)
	}
	m3, err := NewManagerWithStore(1, 0, st3, MaxAttempts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	j3, _ := m3.Get("job-1")
	if got := j3.Status().State; got != StateQuarantined {
		t.Fatalf("MaxAttempts(1): state %s, want quarantined", got)
	}
}

// The replica checkpoint blob round-trips and rejects corruption.
func TestReplicaCheckpointCodec(t *testing.T) {
	spec := ziffSpec(t, 0.51, 11)
	sess, err := spec.Session()
	if err != nil {
		t.Fatal(err)
	}
	values := [][]float64{{0.5, 0.25, 0}, {0.25, 0.5, 0}, {0.25, 0.25, 0}}
	blob, err := encodeReplicaCheckpoint(2, 4, 2, sess, values)
	if err != nil {
		t.Fatal(err)
	}
	variant, replica, nextK, rows, session, err := decodeReplicaCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if variant != 2 || replica != 4 || nextK != 2 {
		t.Fatalf("identity lost: %d %d %d", variant, replica, nextK)
	}
	if len(rows) != 3 || len(rows[0]) != 2 || rows[0][0] != 0.5 || rows[1][1] != 0.5 {
		t.Fatalf("rows lost: %v", rows)
	}
	if _, err := parsurf.ResumeSession(spec, bytes.NewReader(session)); err != nil {
		t.Fatalf("embedded session checkpoint does not resume: %v", err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated", blob[:len(blob)/3]},
		{"bad version", append([]byte{99, 0, 0, 0}, blob[4:]...)},
	} {
		if _, _, _, _, _, err := decodeReplicaCheckpoint(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// A short blob whose header claims a large row matrix is rejected
// before any row is allocated: decoding costs memory in proportion to
// the blob's bytes, never to its header's claims.
func TestReplicaCheckpointDecodeBoundedByBlob(t *testing.T) {
	var buf bytes.Buffer
	e := persist.NewWriter(&buf)
	e.U32(replicaCkptVersion)
	e.U32(0)       // variant
	e.U32(0)       // replica
	e.U32(1 << 20) // grid points claimed
	e.U32(8)       // species claimed: 64 MiB of rows behind a 20-byte blob
	blob := buf.Bytes()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, _, _, _, err := decodeReplicaCheckpoint(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoder accepted a blob with no rows behind its claim")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("decoding a %d-byte blob allocated %d bytes", len(blob), grown)
	}
}
