// Package job is the service layer over the declarative session spec:
// a manager that accepts specs as plain data, runs them — single
// sessions, ensembles, or whole parameter sweeps — on a bounded pool
// of job runners, tracks per-job progress (engine steps, simulated
// time, grid points merged), supports cancellation, and exposes
// results as the library's Series/moment types. cmd/surfd wraps it in
// an HTTP server; the manager itself is transport-agnostic and safe
// for concurrent use.
//
// Every run goes through parsurf.RunSweep, so a job inherits the
// ensemble machinery wholesale: replicas on split RNG streams merged
// bit-identically for any worker count, first-error/cancel semantics —
// cancelling a job cancels its context, which aborts every replica
// within one engine step — and the replica pool: each variant's model
// arena is compiled once per spec, each worker builds one session and
// runs successive replica indices through Session.Reset, and sample
// grids recycle through the streaming merge, so a job's steady-state
// per-replica allocation cost is near zero no matter how many replicas
// it fans out.
//
// Every manager runs on a store: store.NewMem for a server that forgets
// its jobs at exit, store.OpenFS for a durable one. Every lifecycle
// transition persists a job record before it is acknowledged, completed
// results persist as content-addressed blobs and are always served from
// the store, and a restart on the same store recovers the whole table —
// jobs that were queued or running when the process died are re-queued
// automatically. A finished job keeps only its status in memory; its
// specs and result live in the store. Because the result key is the
// SHA-256 of the specs' hashes and the run shape, the store doubles as
// a result cache: a resubmission whose hash matches a stored completed
// result is answered `done` immediately without re-simulating (opt out
// per submission with Request.NoCache).
package job

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parsurf"
	"parsurf/internal/backoff"
	"parsurf/internal/store"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued marks a job accepted but not yet picked up by a
	// runner.
	StateQueued State = "queued"
	// StateRunning marks a job whose replicas are executing.
	StateRunning State = "running"
	// StateDone marks a successfully completed job; its result is
	// available.
	StateDone State = "done"
	// StateFailed marks a job that returned an error.
	StateFailed State = "failed"
	// StateCancelled marks a job stopped by Cancel (or manager
	// shutdown) before completing.
	StateCancelled State = "cancelled"
	// StateQuarantined marks a poison job: one whose record could not be
	// recovered, or whose runs crashed the process MaxAttempts times.
	// Quarantined jobs never re-queue; they keep their record (and
	// error) for inspection.
	StateQuarantined State = "quarantined"
	// StateDeadlineExceeded marks a job stopped because it ran past its
	// duration budget (Request.MaxDuration or the manager's default).
	// Distinct from failed — the workload was fine, just too slow for
	// the budget it was given — and terminal: a crash-recovered record
	// in this state never re-queues.
	StateDeadlineExceeded State = "deadline_exceeded"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateQuarantined, StateDeadlineExceeded:
		return true
	}
	return false
}

// ErrOverloaded marks a submission shed for transient capacity reasons
// — a full backlog or an aggregate-cost budget already committed to
// running jobs. Unlike a validation error, retrying the identical
// request later can succeed; the HTTP layer maps it to 429 with a
// Retry-After. Match with errors.Is.
var ErrOverloaded = errors.New("job: overloaded")

// Request describes one job: which specs to run and how to sample
// them. One spec is a single session or ensemble; several specs form a
// sweep (one ensemble per variant over a shared worker pool).
type Request struct {
	// Specs are the session specs to run; at least one.
	Specs []*parsurf.SessionSpec
	// Replicas per variant (default 1: a single session per spec).
	Replicas int
	// Workers is the goroutine count of the job's replica pool
	// (default 1).
	Workers int
	// Until is the simulated-time horizon (required, > 0).
	Until float64
	// Every is the sampling interval (required, > 0).
	Every float64
	// NoCache opts this submission out of the result cache: the job
	// runs even when a stored result matches its content hash. The
	// fresh result still persists when it completes (overwriting an
	// equal blob — results are deterministic).
	NoCache bool
	// MaxDuration bounds the job's wall-clock run time; past it the
	// job lands in StateDeadlineExceeded. Zero means no request-level
	// budget; a manager-level MaxJobDuration still applies and also
	// caps any request value. The budget is absolute once the job first
	// starts: a crash-recovered job gets only its remaining time, not a
	// fresh allowance. Excluded from the content hash — a completed
	// result is the same whatever budget it ran under.
	MaxDuration time.Duration
}

// Progress is a point-in-time snapshot of a running job's advancement,
// assembled from per-replica counters the replica goroutines publish
// at every grid point.
type Progress struct {
	// Replicas is the total replica count across variants.
	Replicas int `json:"replicas"`
	// Steps is the total engine Step calls across replicas (as of each
	// replica's latest grid point).
	Steps uint64 `json:"steps"`
	// SimTime is the ensemble frontier: the minimum simulated time any
	// replica has reached. Every replica is at least this far.
	SimTime float64 `json:"simTime"`
	// GridPointsMerged counts (replica, grid point) samples taken, out
	// of TotalGridPoints.
	GridPointsMerged int64 `json:"gridPointsMerged"`
	// TotalGridPoints is Replicas × grid length.
	TotalGridPoints int64 `json:"totalGridPoints"`
}

// Status is a snapshot of a job's state, progress and (terminal) error.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Hash is the content address of the job's (spec, run-shape) bytes.
	// Two jobs with equal hashes compute equal results.
	Hash string `json:"hash,omitempty"`
	// Cached marks a job answered from the result cache without
	// running (its progress counters stay zero).
	Cached bool `json:"cached,omitempty"`
	// Attempts counts crash-interrupted runs of this job (see
	// store.JobRecord.Attempts).
	Attempts int `json:"attempts,omitempty"`
	// Resumed counts replicas restored from a stored checkpoint instead
	// of running from scratch.
	Resumed int64 `json:"resumed,omitempty"`
	// Deadline is the job's absolute run deadline in Unix nanoseconds,
	// set once the job starts under a duration budget; 0 otherwise.
	Deadline int64    `json:"deadline,omitempty"`
	Progress Progress `json:"progress"`
	// Shards lists the job's fleet shards when the manager runs jobs
	// through a sharding executor; nil for the local sweep.
	Shards []ShardStatus `json:"shards,omitempty"`
}

// ShardStatus is one fleet shard's public snapshot, surfaced in Status
// when the manager executes jobs through a sharding executor.
type ShardStatus struct {
	// ID is the shard id, unique within the job (e.g. "v0-8-16").
	ID string `json:"id"`
	// Variant is the sweep variant (spec index).
	Variant int `json:"variant"`
	// Lo and Hi bound the half-open replica index range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// State is the shard lifecycle state (queued/leased/done/
	// quarantined).
	State string `json:"state"`
	// Worker names the worker currently holding the shard's lease.
	Worker string `json:"worker,omitempty"`
	// Attempts counts leases that ended in failure or expiry.
	Attempts int `json:"attempts,omitempty"`
	// Requeues counts how many times the shard went back on the queue.
	Requeues int `json:"requeues,omitempty"`
	// Error is the latest failure text reported for the shard.
	Error string `json:"error,omitempty"`
}

// Executor runs jobs' workloads. The manager's default is the local
// sweep (every replica in this process, through parsurf.RunSweep); the
// fleet coordinator implements it to shard the ensemble across worker
// nodes.
type Executor interface {
	// Execute runs on the job's runner goroutine, observes ctx for
	// cancellation and deadline, and returns the merged result, which is
	// bit-identical whichever executor computed it.
	Execute(ctx context.Context, j *Job) (*store.Result, error)
	// JobShards lists the job's shards for Status (nil when the executor
	// does not shard, or is not executing the job).
	JobShards(jobID string) []ShardStatus
	// DropJob discards the executor's per-job state (shard tables,
	// result blobs) once the job reaches a terminal state that will
	// never resume: done, failed, or user-cancelled.
	DropJob(jobID string)
}

// localSweep is the default Executor: the job's whole sweep runs in
// this process through parsurf.RunSweep, observed by the job's progress
// slots and snapshotted into the manager's store.
type localSweep struct{}

func (localSweep) Execute(ctx context.Context, j *Job) (*store.Result, error) {
	opts := []parsurf.EnsembleOption{parsurf.ObserveReplicas(j.observe), j.snapshots()}
	if obs := j.mgr.chaosObserver(j); obs != nil {
		opts = append(opts, parsurf.ObserveReplicas(obs))
	}
	ens, err := parsurf.RunSweep(ctx, j.req.Specs, j.req.Replicas, j.req.Workers,
		j.req.Until, j.req.Every, opts...)
	if err != nil {
		return nil, err
	}
	return resultData(j.req.Specs, ens), nil
}

func (localSweep) JobShards(string) []ShardStatus { return nil }

func (localSweep) DropJob(string) {}

// Job is one submitted workload. All methods are safe for concurrent
// use. A terminal job holds no more than one rebuilt from its record:
// its result lives in the store, and its specs are dropped once its
// runner is done with them.
type Job struct {
	id        string
	seq       int
	mgr       *Manager
	hash      string // content address of the (spec, run-shape) bytes
	cached    bool
	submitted time.Time

	// req and rawReq (the stored request bytes) are guarded by mu; both
	// are dropped once the job is terminal, apart from req's run shape.
	req    Request
	rawReq json.RawMessage

	// attempts is the crash-interruption count carried over from the
	// stored record; set before the job is visible, read-only after.
	attempts int
	// notBefore delays a crash-recovered job's restart (exponential
	// backoff); zero for fresh submissions.
	notBefore time.Time
	// resumed counts replicas restored from a stored checkpoint.
	resumed atomic.Int64

	// deadlineNS is the absolute run deadline (Unix nanoseconds; 0 =
	// none), set once when the job first starts and persisted, so a
	// crash-recovered job honors its remaining budget. Atomic because
	// the runner writes it while Cancel may concurrently persist.
	deadlineNS atomic.Int64
	// cost is the job's admission-control cost estimate (see
	// estimateCost); costCharged guards exactly-once release of the
	// manager's aggregate budget when the job goes terminal.
	cost        int64
	costCharged atomic.Bool

	ctx    context.Context
	cancel context.CancelFunc

	// gridLen and replicas (per variant) fix the job's shape when it is
	// built; they outlive the dropped specs.
	gridLen  int
	replicas int

	// userCancel distinguishes a cancellation requested through Cancel
	// from one induced by manager shutdown: the former persists as
	// cancelled, the latter leaves the stored record resumable so the
	// next boot re-queues the job.
	userCancel atomic.Bool

	// Per-replica counters, each written only by its replica's
	// goroutine at grid points; snapshots read them atomically.
	slotSteps []atomic.Uint64
	slotTime  []atomic.Uint64 // Float64bits; zero = not yet observed
	merged    atomic.Int64

	// writeMu serializes the job's record writes (see persist).
	writeMu sync.Mutex

	mu    sync.Mutex
	state State
	err   error

	done chan struct{}
}

// ID returns the manager-assigned job id.
func (j *Job) ID() string { return j.id }

// Request returns the job's request (shared specs; treat as
// read-only). Its specs are valid only while the job is queued or
// running: a terminal job keeps just the run shape.
func (j *Job) Request() Request {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.req
}

// Hash returns the job's content address: the result-cache key of its
// (spec, run-shape) bytes.
func (j *Job) Hash() string { return j.hash }

// Cached reports whether the job was answered from the result cache.
func (j *Job) Cached() bool { return j.cached }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel stops the job: queued jobs never start, running jobs abort
// every replica within one engine step (the ensemble first-error/
// cancel machinery). The job is marked cancelled immediately; its
// runner is freed as soon as the replicas notice the cancelled
// context. Safe to call repeatedly and after completion — cancelling a
// terminal job is a no-op.
func (j *Job) Cancel() {
	j.userCancel.Store(true)
	j.cancel()
	j.finish(StateCancelled, context.Canceled, nil)
}

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	state, err := j.state, j.err
	j.mu.Unlock()
	st := Status{ID: j.id, State: state, Hash: j.hash, Cached: j.cached,
		Attempts: j.attempts, Resumed: j.resumed.Load(),
		Deadline: j.deadlineNS.Load(), Progress: j.progress()}
	if err != nil {
		st.Error = err.Error()
	}
	st.Shards = j.mgr.exec.JobShards(j.id)
	return st
}

// ResultData returns the result of a done job — the form the store
// persists and the HTTP server serves — and errors until then (poll
// Status or wait on Done first). Every call reads it from the store.
func (j *Job) ResultData() (*store.Result, error) {
	j.mu.Lock()
	state, err := j.state, j.err
	j.mu.Unlock()
	switch state {
	case StateDone:
	case StateFailed:
		return nil, err
	case StateCancelled:
		return nil, fmt.Errorf("job: %s was cancelled", j.id)
	default:
		return nil, fmt.Errorf("job: %s is %s; no result yet", j.id, state)
	}
	<-j.done // the result blob lands before Done closes
	res, err := j.mgr.st.GetResult(j.hash)
	if err != nil {
		return nil, fmt.Errorf("job: %s: loading stored result: %w", j.id, err)
	}
	return res, nil
}

// progress assembles the counter snapshot.
func (j *Job) progress() Progress {
	p := Progress{
		Replicas:         len(j.slotSteps),
		TotalGridPoints:  int64(len(j.slotSteps)) * int64(j.gridLen),
		GridPointsMerged: j.merged.Load(),
	}
	frontier := math.Inf(1)
	for i := range j.slotSteps {
		p.Steps += j.slotSteps[i].Load()
		t := math.Float64frombits(j.slotTime[i].Load())
		if t < frontier {
			frontier = t
		}
	}
	if math.IsInf(frontier, 1) {
		frontier = 0
	}
	p.SimTime = frontier
	return p
}

// ReplicaTimes returns each replica's simulated-time frontier, straight
// from the atomic progress slots — the per-replica detail behind
// Progress.SimTime, streamed out by the SSE endpoint.
func (j *Job) ReplicaTimes() []float64 {
	out := make([]float64, len(j.slotTime))
	for i := range j.slotTime {
		out[i] = math.Float64frombits(j.slotTime[i].Load())
	}
	return out
}

// slot is replica (variant, replica)'s index in the job's per-replica
// progress and snapshot slots, or -1 for a replica outside the job.
func (j *Job) slot(variant, replica int) int {
	s := variant*j.replicas + replica
	if variant < 0 || replica < 0 || replica >= j.replicas || s >= len(j.slotSteps) {
		return -1
	}
	return s
}

// observe is the per-replica grid-point hook: it publishes the
// replica's engine counters. Each (variant, replica) slot is written
// only from that replica's goroutine.
func (j *Job) observe(variant, replica int, t float64, sess *parsurf.Session) {
	slot := j.slot(variant, replica)
	eng := sess.Engine()
	j.slotSteps[slot].Store(eng.Steps())
	j.slotTime[slot].Store(math.Float64bits(eng.Time()))
	j.merged.Add(1)
}

// SetReplicaProgress publishes one replica's engine counters from
// outside the local replica pool — the fleet coordinator calls it with
// the counters workers report, so distributed jobs feed the same
// progress slots (and SSE stream) as local ones. Out-of-range slots are
// ignored rather than trusted.
func (j *Job) SetReplicaProgress(variant, replica int, steps uint64, t float64) {
	slot := j.slot(variant, replica)
	if slot < 0 {
		return
	}
	j.slotSteps[slot].Store(steps)
	j.slotTime[slot].Store(math.Float64bits(t))
}

// AddMerged advances the merged grid-point counter by n — the
// executor-side counterpart of the per-grid-point increment in observe.
func (j *Job) AddMerged(n int64) { j.merged.Add(n) }

// GridLen returns the job's sample-grid length.
func (j *Job) GridLen() int { return j.gridLen }

// setState transitions the job, reporting whether the transition took
// effect (a terminal job never changes again); terminal states cancel
// the job context, releasing its registration under the manager
// context (a completed job would otherwise pin a child context for the
// life of the server). Whoever makes the job terminal closes Done once
// the transition is durable (see finish).
func (j *Job) setState(s State, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = s
	j.err = err
	if s.Terminal() {
		j.cancel()
		// Give the admission budget back exactly once; the budget is
		// atomic, so this needs no manager lock.
		j.releaseCost()
	}
	return true
}

// releaseCost returns the job's admission-cost charge to the manager's
// aggregate budget, exactly once. Safe to call on never-charged jobs.
func (j *Job) releaseCost() {
	if j.costCharged.CompareAndSwap(true, false) {
		j.mgr.activeCost.Add(-j.cost)
	}
}

// persist writes the job's record with its current state and error; a
// shutdown cancellation is written as queued, so the next boot resumes
// the job. Writes are serialized per job and each reads the state under
// that lock, so the last state set is the last state written: a late
// "running" write cannot overwrite a "cancelled" one. Mid-flight
// callers ignore the error: a transition that cannot be recorded leaves
// the previous record in place, which recovery treats as resumable —
// re-running a job is safe (results are deterministic), losing one is
// not.
func (j *Job) persist() error {
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	rec := &store.JobRecord{
		ID:        j.id,
		Seq:       j.seq,
		Hash:      j.hash,
		State:     string(j.state),
		Cached:    j.cached,
		Attempts:  j.attempts,
		Submitted: j.submitted.UnixNano(),
		Deadline:  j.deadlineNS.Load(),
		Request:   j.rawReq,
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	j.mu.Unlock()
	if State(rec.State) == StateCancelled && !j.userCancel.Load() {
		rec.State, rec.Error = string(StateQueued), ""
	}
	return j.mgr.putJob(rec)
}

// dropCheckpoints discards the job's stored replica checkpoints — a
// terminal job no longer resumes. Best-effort: leftover checkpoints are
// only dead weight (a later run with the same hash validates against
// them and either resumes correctly or starts over). The executor drops
// its per-job state (the fleet shard table) too.
func (j *Job) dropCheckpoints() {
	_ = j.mgr.st.DeleteCheckpoints(j.hash)
	j.mgr.exec.DropJob(j.id)
}

// run executes the job on the calling runner goroutine.
func (j *Job) run() {
	if j.ctx.Err() != nil {
		j.finishErr(j.ctx.Err())
		return
	}
	// A crash-recovered job waits out its backoff before re-running, so
	// a job that kills the process quickly cannot crash-loop it at full
	// speed. Cancellation cuts the wait short.
	if delay := time.Until(j.notBefore); delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-j.ctx.Done():
			t.Stop()
			j.finishErr(j.ctx.Err())
			return
		case <-t.C:
		}
	}
	if j.setState(StateRunning, nil) {
		j.mgr.started.Add(1)
		// Arm the deadline before the running record persists, so the
		// stored record always carries the absolute budget a recovery
		// must honor.
		j.armDeadline()
		j.persist()
	}
	// The deadline lives on the run context, not the job context:
	// RunSweep's first-error machinery then reports DeadlineExceeded as
	// the root cause, which finishErr classifies as the distinct
	// deadline_exceeded terminal state. A deadline already in the past
	// (a recovered job that spent its whole budget before the crash)
	// fails immediately.
	runCtx := j.ctx
	if dl := j.deadlineNS.Load(); dl != 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithDeadline(j.ctx, time.Unix(0, dl))
		defer cancel()
	}
	res, err := j.mgr.exec.Execute(runCtx, j)
	if err != nil {
		j.finishErr(err)
		return
	}
	j.finish(StateDone, nil, res)
}

// release drops what the record and the result blob already hold — the
// specs and the stored request bytes — so a finished job costs the
// manager only its status. The runner calls it once run has returned,
// when nothing reads the specs any more; it waits for Done, so whoever
// won the terminal transition has written its record first.
func (j *Job) release() {
	<-j.done
	j.mu.Lock()
	j.req.Specs, j.rawReq = nil, nil
	j.mu.Unlock()
}

// armDeadline fixes the job's absolute run deadline when it first
// starts: the request's MaxDuration, tightened by the manager-level
// cap when one is set (the cap alone when the request carries none). A
// recovered job that already holds a stored deadline keeps it — the
// budget is absolute, so only the remaining time is honored.
func (j *Job) armDeadline() {
	if j.deadlineNS.Load() != 0 {
		return
	}
	d := j.req.MaxDuration
	if lim := j.mgr.maxJobDuration; lim > 0 && (d <= 0 || d > lim) {
		d = lim
	}
	if d <= 0 {
		return
	}
	j.deadlineNS.Store(time.Now().Add(d).UnixNano())
}

// finishErr classifies a terminal error: running past the job's
// duration budget is the distinct deadline_exceeded state (terminal —
// never re-queued); a cancellation requested via Cancel is
// StateCancelled and persists as such; a cancellation induced by
// manager shutdown also lands in StateCancelled in memory, but
// persists as queued so the next boot resumes the job; anything else
// is a failure. A panic recovered from a replica arrives here as an
// ordinary failure error whose text carries the goroutine stack, so
// the stored record stays diagnosable — and, being failed, is terminal
// rather than crash-loop re-queued.
func (j *Job) finishErr(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		// The run context is the only deadline-carrying context in the
		// chain (the manager context is cancel-only), so this is the
		// job's own budget expiring.
		j.finish(StateDeadlineExceeded, fmt.Errorf("job: exceeded its run deadline: %w", err), nil)
	case errors.Is(err, context.Canceled):
		j.finish(StateCancelled, err, nil)
	default:
		j.finish(StateFailed, err, nil)
	}
}

// finish makes the job terminal in state s, unless it already is; a
// done job hands over its result res. The durable side lands before
// Done closes, so whoever waits on Done finds it in place:
//   - a done job writes its result blob, then its record — blob before
//     record, because a record marked done must find its blob. If the
//     blob write fails the record stays at running, so a restart
//     re-runs the job instead of serving a done status with no result;
//   - a shutdown-induced cancellation persists as queued and keeps its
//     replica checkpoints, so the next boot continues the job from its
//     last snapshots;
//   - every other terminal state persists as itself, and the job's
//     checkpoints drop.
func (j *Job) finish(s State, err error, res *store.Result) {
	if !j.setState(s, err) {
		return
	}
	defer close(j.done)
	if s == StateCancelled && !j.userCancel.Load() {
		j.persist()
		return
	}
	if s == StateDone && j.mgr.st.PutResult(j.hash, res) != nil {
		return
	}
	j.persist()
	j.dropCheckpoints()
}

// resultData flattens merged ensembles into the store's serializable
// result form (species labels, shared grid, mean/std rows).
func resultData(specs []*parsurf.SessionSpec, ens []*parsurf.Ensemble) *store.Result {
	res := &store.Result{Variants: make([]store.Variant, len(ens))}
	for v, e := range ens {
		vr := store.Variant{
			Species: specs[v].SpeciesNames(),
			T:       e.Grid.Times(),
			Mean:    make([][]float64, len(e.Mean)),
			Std:     make([][]float64, len(e.Std)),
		}
		for sp := range e.Mean {
			vr.Mean[sp] = e.Mean[sp].X
			vr.Std[sp] = e.Std[sp].X
		}
		res.Variants[v] = vr
	}
	return res
}

// storedRequest is the persisted form of a Request: specs as their
// canonical JSON documents plus the run shape. NoCache is transient
// and deliberately not stored. MaxDuration (nanoseconds) rides along
// so a recovered job still knows its budget, but — like Workers — it
// is excluded from the content hash: the result does not depend on it.
type storedRequest struct {
	Specs       []json.RawMessage `json:"specs"`
	Replicas    int               `json:"replicas"`
	Workers     int               `json:"workers"`
	Until       float64           `json:"until"`
	Every       float64           `json:"every"`
	MaxDuration int64             `json:"maxDuration,omitempty"`
}

// encodeRequest renders a normalized request in its stored form and
// computes its content hash from the specs' canonical JSON.
func encodeRequest(req Request) (json.RawMessage, string, error) {
	specs := make([]json.RawMessage, len(req.Specs))
	for i, sp := range req.Specs {
		b, err := json.Marshal(sp)
		if err != nil {
			return nil, "", fmt.Errorf("job: encoding spec %d: %w", i, err)
		}
		specs[i] = b
	}
	raw, err := json.Marshal(storedRequest{
		Specs:       specs,
		Replicas:    req.Replicas,
		Workers:     req.Workers,
		Until:       req.Until,
		Every:       req.Every,
		MaxDuration: int64(req.MaxDuration),
	})
	if err != nil {
		return nil, "", fmt.Errorf("job: encoding request: %w", err)
	}
	return raw, contentHash(req.Specs, req.Replicas, req.Until, req.Every), nil
}

// decodeRequest rebuilds a runnable Request from its stored form.
func decodeRequest(raw json.RawMessage) (Request, error) {
	var sr storedRequest
	if err := json.Unmarshal(raw, &sr); err != nil {
		return Request{}, fmt.Errorf("job: decoding stored request: %w", err)
	}
	req := Request{
		Replicas:    sr.Replicas,
		Workers:     sr.Workers,
		Until:       sr.Until,
		Every:       sr.Every,
		MaxDuration: time.Duration(sr.MaxDuration),
		Specs:       make([]*parsurf.SessionSpec, len(sr.Specs)),
	}
	for i, b := range sr.Specs {
		sp, err := parsurf.ParseSpec(b)
		if err != nil {
			return Request{}, fmt.Errorf("job: stored spec %d: %w", i, err)
		}
		req.Specs[i] = sp
	}
	return req, nil
}

// contentHash is the SHA-256 content address of (specs, replicas,
// until, every). Each spec enters as its Hash, which covers the
// byte-fixed-point specfile marshal and the engine's trajectory epoch,
// so identical workloads hash identically across processes and a bump
// of one engine's epoch retires only the results, and the replica
// snapshots keyed by them, of jobs that run that engine. The prefix
// carries no version: the epochs mark trajectory generations. Workers is
// deliberately excluded: merged Mean/Std are bit-identical for every
// worker count, so runs differing only in worker fan-out share one
// result.
func contentHash(specs []*parsurf.SessionSpec, replicas int, until, every float64) string {
	h := sha256.New()
	fmt.Fprintf(h, "parsurf-job replicas=%d until=%016x every=%016x\n",
		replicas, math.Float64bits(until), math.Float64bits(every))
	for _, sp := range specs {
		fmt.Fprintf(h, "%s\n", sp.Hash())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Manager owns the bounded runner pool and the job table.
type Manager struct {
	// st holds every job record and result blob.
	st store.Store

	// exec runs every job: localSweep unless WithExecutor replaced it.
	exec Executor

	// ckptEvery is the minimum wall-clock interval between replica
	// checkpoints; 0 disables checkpointing.
	ckptEvery time.Duration
	// maxAttempts bounds crash-interrupted runs before quarantine.
	maxAttempts int

	// maxJobDuration caps every job's wall-clock run time (0: none); a
	// request's own MaxDuration may only tighten it.
	maxJobDuration time.Duration
	// maxCells and maxReplicas are the per-job admission caps (0:
	// uncapped): lattice cells per variant, total replicas per job.
	// Breaching one is a permanent validation error, never overload.
	maxCells    int64
	maxReplicas int
	// maxActiveCost bounds the summed cost estimate of every admitted,
	// not-yet-terminal job (0: unbounded); activeCost is the running
	// committed total. Atomic because terminal transitions release it
	// from setState, which must not take m.mu (Submit holds it while
	// calling setState).
	maxActiveCost int64
	activeCost    atomic.Int64

	// chaosPanicSet arms panic injection: jobs whose spec seed equals
	// chaosPanicSeed panic inside a replica (see ChaosPanicSeed).
	chaosPanicSet  bool
	chaosPanicSeed uint64

	// started counts jobs that actually executed (reached the executor) —
	// cache hits never increment it, which is what lets tests and the
	// CI durability check assert "served from cache" without timing.
	started atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int
	closed bool

	queue  chan *Job
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// DefaultBacklog bounds the queued-job count when NewManagerWithStore
// is given no explicit backlog.
const DefaultBacklog = 256

// DefaultMaxAttempts is how many crash-interrupted runs a job gets
// before recovery quarantines it instead of re-queueing.
const DefaultMaxAttempts = 3

// ManagerOption configures a Manager beyond its pool shape.
type ManagerOption func(*Manager)

// CheckpointEvery makes the manager snapshot each running replica
// into the store at most once per interval d (checked at the replica's
// grid points). A crash or shutdown then costs at most d of simulated
// work per replica: the next boot resumes each replica from its latest
// valid snapshot instead of replaying from zero. d <= 0 (the default)
// disables checkpointing.
func CheckpointEvery(d time.Duration) ManagerOption {
	return func(m *Manager) { m.ckptEvery = d }
}

// MaxAttempts sets how many crash-interrupted runs a job gets before it
// is quarantined (default DefaultMaxAttempts). Values below 1 are
// ignored.
func MaxAttempts(n int) ManagerOption {
	return func(m *Manager) {
		if n >= 1 {
			m.maxAttempts = n
		}
	}
}

// MaxJobDuration caps every job's wall-clock run time: past it the job
// lands in StateDeadlineExceeded. A request's own MaxDuration may only
// tighten the cap. d <= 0 (the default) leaves run time unbounded.
func MaxJobDuration(d time.Duration) ManagerOption {
	return func(m *Manager) { m.maxJobDuration = d }
}

// MaxCells rejects submissions at admission time when any variant's
// lattice exceeds n cells (l0 × l1) — a permanent validation error,
// not load shedding. n <= 0 (the default) uncaps.
func MaxCells(n int64) ManagerOption {
	return func(m *Manager) { m.maxCells = n }
}

// MaxReplicas rejects submissions whose total replica count (specs ×
// replicas) exceeds n. n <= 0 (the default) uncaps.
func MaxReplicas(n int) ManagerOption {
	return func(m *Manager) { m.maxReplicas = n }
}

// MaxActiveCost bounds the summed cost estimate (lattice cells ×
// concurrent replicas + species × grid points, per variant) of every
// admitted job that has not yet reached a terminal state. Submissions
// past the budget shed with ErrOverloaded — transient, retryable —
// instead of being admitted into an over-committed pool. n <= 0 (the
// default) leaves the aggregate unbounded.
func MaxActiveCost(n int64) ManagerOption {
	return func(m *Manager) { m.maxActiveCost = n }
}

// ChaosPanicSeed arms fault injection for chaos drills: any job with a
// spec whose seed equals seed panics inside replica 0 at its first
// sampled grid point past t=0. The panic exercises the genuine
// containment path — recovered in the ensemble worker into a
// stack-carrying error, failing only that job while the process keeps
// serving. Off by default; never enable outside tests and drills.
func ChaosPanicSeed(seed uint64) ManagerOption {
	return func(m *Manager) { m.chaosPanicSet, m.chaosPanicSeed = true, seed }
}

// WithExecutor routes every job through ex instead of the local sweep —
// the fleet coordinator plugs in here. The manager still owns the job
// lifecycle (queueing, persistence, the result cache, recovery); only
// the replica execution moves. ex's shards appear in job statuses, and
// ex drops its per-job state alongside checkpoint cleanup. Replica
// snapshots are then the executor's business: the fleet's workers
// checkpoint their own shards.
func WithExecutor(ex Executor) ManagerOption {
	return func(m *Manager) { m.exec = ex }
}

// NewManagerWithStore starts a manager on st with the given number of
// concurrent job runners and queue capacity (DefaultBacklog when
// backlog <= 0). Each job additionally fans its replicas over its own
// Request.Workers goroutines, so the peak goroutine budget is
// runners × workers.
//
// Submissions persist before they are acknowledged, completed results
// persist as content-addressed blobs, and the store's existing records
// are recovered before the manager accepts new work — completed jobs
// serve their stored results, failed/cancelled jobs keep their terminal
// status, and jobs that were queued or running when the previous
// process died are re-queued in their original submission order (with
// their replicas resuming from stored checkpoints, when the manager
// checkpoints). The backlog grows to fit the recovered active set if
// needed.
//
// Recovery is poison-tolerant: a record that no longer decodes is
// quarantined (kept visible with its error, never re-run) instead of
// failing the whole boot, and a job found mid-run for the
// MaxAttempts'th time — one that keeps crashing the process — is
// quarantined too. Re-queued crash survivors restart under exponential
// backoff.
func NewManagerWithStore(runners, backlog int, st store.Store, opts ...ManagerOption) (*Manager, error) {
	if st == nil {
		return nil, fmt.Errorf("job: NewManagerWithStore needs a store")
	}
	recs, err := st.Jobs()
	if err != nil {
		return nil, fmt.Errorf("job: listing store: %w", err)
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].Submitted != recs[b].Submitted {
			return recs[a].Submitted < recs[b].Submitted
		}
		return recs[a].Seq < recs[b].Seq
	})
	if backlog <= 0 {
		backlog = DefaultBacklog
	}
	// The active set can never exceed the record count.
	backlog = max(backlog, len(recs))
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		st:          st,
		exec:        localSweep{},
		maxAttempts: DefaultMaxAttempts,
		jobs:        make(map[string]*Job),
		queue:       make(chan *Job, backlog),
		ctx:         ctx,
		cancel:      cancel,
	}
	for _, opt := range opts {
		opt(m)
	}
	for _, rec := range recs {
		j, active := m.recover(rec)
		m.jobs[j.id] = j
		m.nextID = max(m.nextID, j.seq)
		if active {
			m.queue <- j // sized above: cannot block
		}
	}
	runners = max(runners, 1)
	m.wg.Add(runners)
	for range runners {
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				j.run()
				j.release()
			}
		}()
	}
	return m, nil
}

// recover rebuilds one stored record into a job, deciding its fate:
// terminal records stay as they are, active ones re-queue (crash
// survivors with backoff), and anything undecodable or past its crash
// budget is quarantined.
func (m *Manager) recover(rec *store.JobRecord) (j *Job, active bool) {
	// A quarantined job stays visible in listings with its error,
	// terminal from birth, and never runs. It keeps qerr itself, not
	// just its text, so the wrapped cause stays inspectable.
	quarantine := func(qerr error) *Job {
		qrec := *rec
		qrec.State, qrec.Error = string(StateQuarantined), qerr.Error()
		_ = m.putJob(&qrec)
		j := m.newJob(&qrec, Request{}, 0)
		j.err = qerr
		j.dropCheckpoints()
		return j
	}
	req, err := decodeRequest(rec.Request)
	if err != nil {
		return quarantine(fmt.Errorf("recovering %s: %w", rec.ID, err)), false
	}
	grid, err := parsurf.NewTimeGrid(req.Until, req.Every)
	if err != nil {
		return quarantine(fmt.Errorf("recovering %s: %w", rec.ID, err)), false
	}
	switch State(rec.State) {
	case StateQueued:
	case StateRunning:
		// Found mid-run: the previous process died (or was killed)
		// while this job executed. Charge an attempt; past the budget
		// the job is poison.
		rec.Attempts++
		if rec.Attempts >= m.maxAttempts {
			return quarantine(fmt.Errorf("run was interrupted %d times; quarantined as a poison job", rec.Attempts)), false
		}
	case StateDone, StateFailed, StateCancelled, StateQuarantined, StateDeadlineExceeded:
		return m.newJob(rec, req, grid.Len()), false
	default:
		return quarantine(fmt.Errorf("record %s has unknown state %q", rec.ID, rec.State)), false
	}
	rec.State = string(StateQueued)
	j = m.newJob(rec, req, grid.Len())
	if j.attempts > 0 {
		j.notBefore = time.Now().Add(crashDelay(j.attempts))
	}
	// A re-queued job re-joins the admission budget: it will run again
	// and hold the same resources as a fresh submission.
	j.cost = estimateCost(req, grid.Len())
	j.costCharged.Store(true)
	m.activeCost.Add(j.cost)
	// Re-persist as queued (with the attempt charge) so the stored
	// state matches the re-queue.
	j.persist()
	return j, true
}

// crashRestartBackoff is the restart-delay schedule of crash-recovered
// jobs: the shared truncated-exponential policy, unjittered — recovery
// tests pin the exact delays, and a single process re-queueing its own
// jobs has nothing to decorrelate.
var crashRestartBackoff = backoff.Policy{Base: time.Second, Max: 30 * time.Second}

// crashDelay is the restart delay after the nth crash interruption.
func crashDelay(n int) time.Duration {
	if n < 1 {
		return 0
	}
	return crashRestartBackoff.Delay(n - 1)
}

// newJob builds the in-memory job for a record — a fresh submission's
// or a recovered one. A queued record keeps the request to run; a
// terminal one starts with its Done channel closed and zeroed progress,
// keeps only the request's run shape, and serves its result from the
// store.
func (m *Manager) newJob(rec *store.JobRecord, req Request, gridLen int) *Job {
	ctx, cancel := context.WithCancel(m.ctx)
	slots := len(req.Specs) * req.Replicas
	j := &Job{
		id:        rec.ID,
		seq:       rec.Seq,
		mgr:       m,
		hash:      rec.Hash,
		cached:    rec.Cached,
		submitted: time.Unix(0, rec.Submitted),
		req:       req,
		rawReq:    rec.Request,
		attempts:  rec.Attempts,
		ctx:       ctx,
		cancel:    cancel,
		gridLen:   gridLen,
		replicas:  req.Replicas,
		slotSteps: make([]atomic.Uint64, slots),
		slotTime:  make([]atomic.Uint64, slots),
		state:     State(rec.State),
		done:      make(chan struct{}),
	}
	// Keep the stored absolute deadline: a recovered running job gets
	// only the budget it has left, and a past deadline fails it on its
	// first step instead of granting a fresh allowance.
	j.deadlineNS.Store(rec.Deadline)
	if j.state.Terminal() {
		j.req.Specs, j.rawReq = nil, nil
		switch {
		case rec.Error != "":
			j.err = errors.New(rec.Error)
		case j.state == StateCancelled:
			j.err = context.Canceled
		}
		close(j.done)
		cancel()
	}
	return j
}

// putJob writes rec, naming the job in the error.
func (m *Manager) putJob(rec *store.JobRecord) error {
	if err := m.st.PutJob(rec); err != nil {
		return fmt.Errorf("job: persisting %s: %w", rec.ID, err)
	}
	return nil
}

// RunsStarted returns how many jobs actually executed (reached the
// executor) since the manager started. Cache hits and recovered
// terminal jobs never count, so the delta across a resubmission is the
// cache-hit test.
func (m *Manager) RunsStarted() int64 { return m.started.Load() }

// ActiveCost returns the aggregate admission-cost estimate currently
// committed to admitted, not-yet-terminal jobs.
func (m *Manager) ActiveCost() int64 { return m.activeCost.Load() }

// estimateCost scores a request's resource appetite for admission
// control: per variant, lattice cells × the replicas that can be
// resident at once (bounded by the worker pool) — the live engine
// state — plus species × grid points for the merged series. A proxy,
// not a measurement; its job is only to rank a 4096²×64-replica sweep
// far above a 64² single run so the aggregate budget means something.
func estimateCost(req Request, gridLen int) int64 {
	conc := req.Workers
	if req.Replicas < conc {
		conc = req.Replicas
	}
	if conc < 1 {
		conc = 1
	}
	var total int64
	for _, sp := range req.Specs {
		l0, l1 := sp.Extents()
		total += int64(l0)*int64(l1)*int64(conc) + int64(sp.NumSpecies())*int64(gridLen)
	}
	return total
}

// admit enforces the per-job admission caps. A request over -max-cells
// or -max-replicas can never run on this server whatever the load, so
// breaching one is a plain validation error (HTTP 400) — retrying it
// unchanged is pointless — unlike the transient ErrOverloaded paths.
func (m *Manager) admit(req Request) error {
	if m.maxReplicas > 0 {
		if total := len(req.Specs) * req.Replicas; total > m.maxReplicas {
			return fmt.Errorf("job: %d total replicas (%d specs × %d) exceeds the server cap of %d",
				total, len(req.Specs), req.Replicas, m.maxReplicas)
		}
	}
	if m.maxCells > 0 {
		for i, sp := range req.Specs {
			l0, l1 := sp.Extents()
			if cells := int64(l0) * int64(l1); cells > m.maxCells {
				return fmt.Errorf("job: spec %d lattice %d×%d (%d cells) exceeds the server cap of %d cells",
					i, l0, l1, cells, m.maxCells)
			}
		}
	}
	return nil
}

// chaosObserver returns the fault-injecting replica observer for jobs
// matching the armed ChaosPanicSeed, nil (the default) for everything
// else. The returned observer panics on replica 0's first sampled grid
// point past t=0 — inside the ensemble worker goroutine, exactly where
// a real engine bug would fire.
func (m *Manager) chaosObserver(j *Job) parsurf.ReplicaObserver {
	if !m.chaosPanicSet {
		return nil
	}
	armed := false
	for _, sp := range j.req.Specs {
		if sp.Seed() == m.chaosPanicSeed {
			armed = true
			break
		}
	}
	if !armed {
		return nil
	}
	seed := m.chaosPanicSeed
	return func(variant, replica int, t float64, sess *parsurf.Session) {
		if replica == 0 && t > 0 {
			panic(fmt.Sprintf("chaos: injected replica panic (seed %d)", seed))
		}
	}
}

// Submit validates and enqueues a job, returning it immediately. It
// fails when the request is malformed, the manager is shut down, or
// the backlog is full. The job record is persisted before Submit
// returns, and before the job can run; a request whose content hash
// matches a stored completed result (unless Request.NoCache) is
// answered without running: the returned job is already done, its
// result served from the store.
func (m *Manager) Submit(req Request) (*Job, error) {
	if len(req.Specs) == 0 {
		return nil, fmt.Errorf("job: request needs at least one spec")
	}
	for i, spec := range req.Specs {
		if spec == nil {
			return nil, fmt.Errorf("job: spec %d is nil", i)
		}
	}
	if req.Replicas == 0 {
		req.Replicas = 1
	}
	if req.Replicas < 0 {
		return nil, fmt.Errorf("job: negative replica count %d", req.Replicas)
	}
	if req.Workers == 0 {
		req.Workers = 1
	}
	if req.Workers < 0 {
		return nil, fmt.Errorf("job: negative worker count %d", req.Workers)
	}
	if req.MaxDuration < 0 {
		return nil, fmt.Errorf("job: negative max duration %s", req.MaxDuration)
	}
	// Validate the grid up front so a degenerate schedule is a Submit
	// error, not a failed job; the grid length also sizes the progress
	// denominator.
	grid, err := parsurf.NewTimeGrid(req.Until, req.Every)
	if err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	if err := m.admit(req); err != nil {
		return nil, err
	}
	rawReq, hash, err := encodeRequest(req)
	if err != nil {
		return nil, err
	}
	rec := &store.JobRecord{Hash: hash, State: string(StateQueued), Request: rawReq}
	if !req.NoCache {
		// A store read error (not just a miss) degrades to a cache miss:
		// availability of the run beats the shortcut.
		if _, err := m.st.GetResult(hash); err == nil {
			// Cache hit: the job is born done, never touches the queue,
			// and persists as a done record pointing at the shared blob.
			rec.State, rec.Cached = string(StateDone), true
		}
	}

	// The whole registration, including the record write and the
	// enqueue, runs under the manager lock. Close sets the closed flag
	// under this lock before it closes the queue channel (outside the
	// lock), so a submit that reached the send must have observed
	// !closed while Close was still waiting for the lock — the send
	// always happens before the close. Moving the closed check out of
	// the critical section would break that handshake.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("job: manager is shut down")
	}
	// Transient capacity checks, now that the request is known valid
	// and uncached: both shed with ErrOverloaded so the HTTP layer can
	// answer 429 + Retry-After instead of a terminal-looking 400. Only
	// Submit sends to the queue once the manager is up, and it holds
	// m.mu, so a free slot seen here is still free at the send below.
	cost := estimateCost(req, grid.Len())
	if !rec.Cached {
		if m.maxActiveCost > 0 && m.activeCost.Load()+cost > m.maxActiveCost {
			return nil, fmt.Errorf("job: active-cost budget exhausted (%d committed of %d, job needs %d); %w",
				m.activeCost.Load(), m.maxActiveCost, cost, ErrOverloaded)
		}
		if len(m.queue) == cap(m.queue) {
			return nil, fmt.Errorf("job: backlog full (%d queued); %w", cap(m.queue), ErrOverloaded)
		}
	}
	// Persist before the job can run and before acknowledgment: a
	// submission the client saw accepted must survive a restart, and the
	// runner's "running" record must land after this one. A failed write
	// rejects the submission; its id is never handed out again.
	m.nextID++
	rec.Seq = m.nextID
	rec.ID = fmt.Sprintf("job-%d", rec.Seq)
	rec.Submitted = time.Now().UnixNano()
	if err := m.putJob(rec); err != nil {
		return nil, err
	}
	j := m.newJob(rec, req, grid.Len())
	m.jobs[j.id] = j
	if !rec.Cached {
		// Every terminal transition releases the charge exactly once via
		// setState.
		j.cost = cost
		j.costCharged.Store(true)
		m.activeCost.Add(cost)
		m.queue <- j
	}
	return j, nil
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every known job ordered by submission time (then
// sequence number) — deterministic across restarts, where recovery
// reads records in whatever order the store lists them.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].submitted.Equal(out[b].submitted) {
			return out[a].submitted.Before(out[b].submitted)
		}
		return out[a].seq < out[b].seq
	})
	return out
}

// Close stops accepting submissions, cancels every job (queued jobs
// never start; running replicas abort within one engine step) and
// waits for the runners to drain. Jobs interrupted by Close keep
// resumable stored records (queued), so the next NewManagerWithStore on
// the same store re-queues them; only cancellations requested through
// Job.Cancel persist as cancelled.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.mu.Unlock()

	// The runners drain the closed queue, so every queued job reaches a
	// terminal state through run; its stored record stays queued (see
	// finish), which is exactly what makes it resume on restart.
	m.cancel()
	close(m.queue)
	m.wg.Wait()
}
