// Replica checkpointing: the preemption layer of the manager and of
// fleet workers. While a run executes, each replica periodically
// snapshots itself into a store — the engine-exact session checkpoint
// plus the sample rows already recorded on the grid — under the run's
// key namespace and the replica's slot index. After a crash, kill or
// lost lease, the next run of the same work resumes each replica from
// its latest valid snapshot, continuing the trajectory bit for bit; the
// merged result is byte-identical to an uninterrupted run. Invalid or
// stale snapshots are skipped silently (the replica just re-runs from
// zero): a checkpoint is an optimization, never a correctness
// dependency.

package job

import (
	"bytes"
	"math"
	"strconv"
	"time"

	"parsurf"
	"parsurf/internal/persist"
	"parsurf/internal/store"
)

const (
	// replicaCkptVersion versions the replica checkpoint blob layout.
	replicaCkptVersion = 1
	// maxCkptSession bounds the embedded session checkpoint when
	// decoding untrusted blob bytes.
	maxCkptSession = 1 << 27
	// maxCkptPoints bounds the recorded grid columns when decoding.
	maxCkptPoints = 1 << 24
)

// encodeReplicaCheckpoint serializes one replica snapshot: identity
// (variant, replica), the number of grid points already recorded, the
// recorded sample rows, and the session's engine-exact checkpoint.
func encodeReplicaCheckpoint(variant, replica, nextK int, sess *parsurf.Session, values [][]float64) ([]byte, error) {
	var cp bytes.Buffer
	if err := sess.Checkpoint(&cp); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	e := persist.NewWriter(&buf)
	e.U32(replicaCkptVersion)
	e.U32(uint32(variant))
	e.U32(uint32(replica))
	e.U32(uint32(nextK))
	e.U32(uint32(len(values)))
	for _, row := range values {
		for _, x := range row[:nextK] {
			e.F64(x)
		}
	}
	e.Block(cp.Bytes())
	if err := e.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeReplicaCheckpoint parses a blob written by
// encodeReplicaCheckpoint. The header's row shape is untrusted: it is
// checked against the bytes actually left in the blob before any row
// is allocated, so a short blob with an inflated claim allocates
// nothing.
func decodeReplicaCheckpoint(data []byte) (variant, replica, nextK int, rows [][]float64, session []byte, err error) {
	br := bytes.NewReader(data)
	d := persist.NewReader(br)
	if v := d.U32(); d.Err() == nil && v != replicaCkptVersion {
		d.Failf("job: replica checkpoint version %d, want %d", v, replicaCkptVersion)
	}
	variant = int(d.U32())
	replica = int(d.U32())
	k := d.U32()
	species := d.U32()
	if d.Err() == nil && (k < 1 || k > maxCkptPoints) {
		d.Failf("job: replica checkpoint records %d grid points", k)
	}
	if d.Err() == nil && (species < 1 || species > 256) {
		d.Failf("job: replica checkpoint carries %d species", species)
	}
	if need := uint64(k) * uint64(species) * 8; d.Err() == nil && need > uint64(br.Len()) {
		d.Failf("job: replica checkpoint claims %d row bytes, %d remain", need, br.Len())
	}
	if d.Err() != nil {
		return 0, 0, 0, nil, nil, d.Err()
	}
	rows = make([][]float64, species)
	for sp := range rows {
		rows[sp] = make([]float64, k)
		for i := range rows[sp] {
			if rows[sp][i] = d.F64(); d.Err() != nil {
				return 0, 0, 0, nil, nil, d.Err()
			}
		}
	}
	session = d.Block(maxCkptSession)
	if err := d.Err(); err != nil {
		return 0, 0, 0, nil, nil, err
	}
	return variant, replica, int(k), rows, session, nil
}

// ReplicaSnapshots returns the ensemble option that checkpoints a run's
// replicas into st and resumes them from it — the one replica-snapshot
// implementation, shared by the manager (key: the job hash, one slot
// per variant × replica) and fleet workers (key: the shard, one slot
// per replica of the range).
//
// slot maps a replica to its slot in [0, slots), or -1 when the replica
// is not part of the run; a snapshot lives under (key, slot). With
// every > 0 each replica snapshots at most once per interval, checked
// at its grid points; write failures are swallowed — a missed snapshot
// only widens the window a crash can lose. Resume loads whatever
// snapshots st already holds under key and validates each lazily, per
// replica: a blob that fails to decode, names another replica, does not
// fit the grid of gridLen points, or no longer matches spec(variant) is
// skipped and the replica runs from zero. resumed is called on the
// replica's goroutine for every replica that does resume, so the
// caller's progress counters can start from the carried-over work.
//
// A nil st or empty key gives a no-op option.
func ReplicaSnapshots(st store.Store, key string, every time.Duration, slots int,
	slot func(variant, replica int) int, spec func(variant int) *parsurf.SessionSpec, gridLen int,
	resumed func(slot, nextK int, sess *parsurf.Session)) parsurf.EnsembleOption {
	if st == nil || key == "" {
		return parsurf.CheckpointReplicas(nil, nil)
	}
	var save parsurf.ReplicaCheckpoint
	if every > 0 {
		save = snapshotHook(st, key, every, slots, slot)
	}
	return parsurf.CheckpointReplicas(save, resumeProvider(st, key, slots, slot, spec, gridLen, resumed))
}

// snapshotHook is the rate-limited parsurf.ReplicaCheckpoint. Each
// slot's lastSnap entry is touched only by the goroutine driving that
// replica (the ensemble runner pins a replica to one worker for its
// whole duration), so no locking is needed.
func snapshotHook(st store.Store, key string, every time.Duration, slots int,
	slot func(variant, replica int) int) parsurf.ReplicaCheckpoint {
	lastSnap := make([]time.Time, slots)
	now := time.Now()
	for i := range lastSnap {
		lastSnap[i] = now // first snapshot comes one interval into the run
	}
	return func(variant, replica, k int, sess *parsurf.Session, values [][]float64) {
		s := slot(variant, replica)
		if s < 0 || s >= slots || time.Since(lastSnap[s]) < every {
			return
		}
		lastSnap[s] = time.Now()
		blob, err := encodeReplicaCheckpoint(variant, replica, k+1, sess, values)
		if err != nil {
			return
		}
		_ = st.PutCheckpoint(key, strconv.Itoa(s), blob)
	}
}

// resumeProvider is the lazily validating parsurf.ReplicaResume, or nil
// when st holds nothing under key. It loads the blobs up front (they
// are about to be consumed by the run's own replicas).
func resumeProvider(st store.Store, key string, slots int, slot func(variant, replica int) int,
	spec func(variant int) *parsurf.SessionSpec, gridLen int,
	resumed func(slot, nextK int, sess *parsurf.Session)) parsurf.ReplicaResume {
	names, err := st.Checkpoints(key)
	if err != nil || len(names) == 0 {
		return nil
	}
	blobs := make(map[int][]byte, len(names))
	for _, name := range names {
		n, err := strconv.Atoi(name)
		if err != nil || n < 0 || n >= slots {
			continue
		}
		if data, err := st.GetCheckpoint(key, name); err == nil {
			blobs[n] = data
		}
	}
	if len(blobs) == 0 {
		return nil
	}
	return func(variant, replica int) (*parsurf.Session, int, [][]float64, bool) {
		s := slot(variant, replica)
		data, ok := blobs[s]
		if !ok {
			return nil, 0, nil, false
		}
		sp := spec(variant)
		v, r, nextK, rows, cpBytes, err := decodeReplicaCheckpoint(data)
		if err != nil || v != variant || r != replica || nextK > gridLen || len(rows) != sp.NumSpecies() {
			return nil, 0, nil, false
		}
		sess, err := parsurf.ResumeSession(sp, bytes.NewReader(cpBytes))
		if err != nil {
			return nil, 0, nil, false
		}
		resumed(s, nextK, sess)
		return sess, nextK, rows, true
	}
}

// snapshots is the job's replica-snapshot option: keyed by the job's
// content hash with one slot per (variant, replica), writing at the
// manager's checkpoint interval. Resumed replicas pre-fill their
// progress slots so the first status snapshot already reflects the
// carried-over work.
func (j *Job) snapshots() parsurf.EnsembleOption {
	return ReplicaSnapshots(j.mgr.st, j.hash, j.mgr.ckptEvery, len(j.slotSteps), j.slot,
		func(variant int) *parsurf.SessionSpec { return j.req.Specs[variant] }, j.gridLen,
		func(slot, nextK int, sess *parsurf.Session) {
			j.slotSteps[slot].Store(sess.Engine().Steps())
			j.slotTime[slot].Store(math.Float64bits(sess.Engine().Time()))
			j.merged.Add(int64(nextK))
			j.resumed.Add(1)
		})
}
