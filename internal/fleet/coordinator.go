// Package fleet shards surfd sweep jobs across worker nodes: a
// coordinator embedded in the durable server splits each job's
// (variant × replica) space into replica-range shards, hands them to
// workers under expiring leases, and merges the returned per-replica
// rows through the same index-ordered accumulator a single-node run
// uses — so the merged Mean/Std are bit-identical to a local run for
// every fleet size, shard layout, worker death, and delivery order.
//
// The shard table persists through the job store with the write-ahead
// discipline of the rest of surfd: every shard state transition writes
// its record before the transition is acknowledged, and result blobs
// land before the records that mark them done, so a restarted
// coordinator rebuilds the table exactly — done shards replay their
// stored payloads instead of re-running, leased shards re-queue
// (leases are transient by construction), and a shard that keeps
// failing workers is quarantined like a poison job.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parsurf"
	"parsurf/internal/ensemble"
	"parsurf/internal/job"
	"parsurf/internal/store"
)

// Shard lifecycle states, persisted in store.ShardRecord.State.
const (
	shardQueued      = "queued"
	shardLeased      = "leased"
	shardDone        = "done"
	shardQuarantined = "quarantined"
)

// ErrGone reports a lease that no longer exists: the shard finished,
// was re-queued to another worker, or its job is over. Workers abandon
// the shard on ErrGone. Match with errors.Is.
var ErrGone = errors.New("fleet: lease gone")

const (
	// DefaultShardSize is the replica count per shard when the
	// coordinator is not told otherwise.
	DefaultShardSize = 8
	// DefaultLeaseTTL is how long a worker's lease on a shard lasts
	// without a heartbeat before the shard re-queues.
	DefaultLeaseTTL = 30 * time.Second
	// DefaultMaxAttempts is how many failed or expired leases a shard
	// gets before it is quarantined and its job fails.
	DefaultMaxAttempts = 3
	// MaxLeaseWait bounds how long a waiting lease parks at the
	// coordinator before it answers "nothing queued". It sits well
	// under the worker client's 2-minute timeout and surfd's
	// ReadTimeout, so a parked call always ends on the coordinator's
	// terms.
	MaxLeaseWait = 20 * time.Second
)

// Counters are the coordinator's monotonic event counts, served by
// GET /fleet/status.
type Counters struct {
	// Leases counts shard leases handed out.
	Leases uint64 `json:"leases"`
	// Requeues counts shards put back on the queue after a failed or
	// expired lease.
	Requeues uint64 `json:"requeues"`
	// Expiries counts leases reclaimed by the expiry sweeper (a subset
	// of the events behind Requeues).
	Expiries uint64 `json:"expiries"`
	// ShardsDone counts shard results accepted and merged.
	ShardsDone uint64 `json:"shardsDone"`
}

// Grant is a lease response: everything a worker needs to run one
// shard and nothing more — the variant's spec document travels with the
// grant, so workers hold no job state between shards.
type Grant struct {
	// Shard is the global shard id ("job-3.v0-0-8"), the token every
	// follow-up call names.
	Shard string `json:"shard"`
	// Job and Hash identify the owning job; Hash keys the worker's
	// local mid-shard checkpoints.
	Job  string `json:"job"`
	Hash string `json:"hash,omitempty"`
	// Variant, Lo, Hi locate the shard in the job's replica space.
	Variant int `json:"variant"`
	Lo      int `json:"lo"`
	Hi      int `json:"hi"`
	// Spec is the variant's session spec document.
	Spec json.RawMessage `json:"spec"`
	// Until and Every are the job's run shape.
	Until float64 `json:"until"`
	Every float64 `json:"every"`
	// LeaseMillis is the lease TTL; workers heartbeat well inside it.
	LeaseMillis int64 `json:"leaseMillis"`
}

// ReplicaProgress is one replica's engine counters inside a heartbeat.
type ReplicaProgress struct {
	Replica int     `json:"replica"`
	Steps   uint64  `json:"steps"`
	Time    float64 `json:"time"`
}

// shard is the in-memory state of one persisted shard record plus its
// transient lease.
type shard struct {
	rec     store.ShardRecord
	expires time.Time
}

// fleetJob is one job currently executing through the coordinator.
type fleetJob struct {
	id    string
	j     *job.Job
	specs []*parsurf.SessionSpec
	raw   []json.RawMessage // canonical spec documents for grants
	req   job.Request
	grid  parsurf.TimeGrid
	accs  []*ensemble.Accumulator

	shards map[string]*shard
	// order is the deterministic shard ordering (variant asc, lo asc):
	// lease handout, status listings and recovery all walk it.
	order     []string
	remaining int

	// err and finished end Execute: err set (under the coordinator
	// lock) before finished closes.
	err      error
	finished chan struct{}
}

// Coordinator owns the fleet shard queue. It is a job.Executor: jobs
// route through Execute, statuses carry its JobShards, and terminal
// jobs drop their shard state through DropJob. All methods are safe
// for concurrent use.
type Coordinator struct {
	st          store.Store
	shardSize   int
	ttl         time.Duration
	maxAttempts int

	leases     atomic.Uint64
	requeues   atomic.Uint64
	expiries   atomic.Uint64
	shardsDone atomic.Uint64

	mu    sync.Mutex
	jobs  map[string]*fleetJob
	order []string // job handout order (FIFO)
	// queued is closed (and replaced) whenever a shard becomes
	// leasable; parked leases wait on the channel they read under mu
	// in the same critical section that found nothing to lease.
	queued chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// Option configures a Coordinator.
type Option func(*Coordinator)

// ShardSize sets the replica count per shard (default DefaultShardSize;
// values below 1 are ignored).
func ShardSize(n int) Option {
	return func(c *Coordinator) {
		if n >= 1 {
			c.shardSize = n
		}
	}
}

// LeaseTTL sets the heartbeat-renewed lease duration (default
// DefaultLeaseTTL; non-positive values are ignored).
func LeaseTTL(d time.Duration) Option {
	return func(c *Coordinator) {
		if d > 0 {
			c.ttl = d
		}
	}
}

// MaxShardAttempts sets how many failed or expired leases a shard gets
// before quarantine (default DefaultMaxAttempts; values below 1 are
// ignored).
func MaxShardAttempts(n int) Option {
	return func(c *Coordinator) {
		if n >= 1 {
			c.maxAttempts = n
		}
	}
}

// New starts a coordinator persisting its shard table through st
// (required — fleet mode is inherently durable).
func New(st store.Store, opts ...Option) (*Coordinator, error) {
	if st == nil {
		return nil, fmt.Errorf("fleet: coordinator needs a store")
	}
	c := &Coordinator{
		st:          st,
		shardSize:   DefaultShardSize,
		ttl:         DefaultLeaseTTL,
		maxAttempts: DefaultMaxAttempts,
		jobs:        make(map[string]*fleetJob),
		queued:      make(chan struct{}),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	go c.sweep()
	return c, nil
}

// Close stops the expiry sweeper and releases every parked lease (later
// leases answer at once). In-flight Execute calls are ended by their
// own contexts (the manager cancels them on shutdown), not by Close.
// Close is safe to call more than once.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// Counters returns the monotonic event counts.
func (c *Coordinator) Counters() Counters {
	return Counters{
		Leases:     c.leases.Load(),
		Requeues:   c.requeues.Load(),
		Expiries:   c.expiries.Load(),
		ShardsDone: c.shardsDone.Load(),
	}
}

// sweep reclaims expired leases. The period tracks the TTL so a short
// test TTL is enforced promptly without busy-polling production ones.
func (c *Coordinator) sweep() {
	defer close(c.done)
	period := c.ttl / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.reclaimExpired(now)
		}
	}
}

// reclaimExpired requeues (or quarantines) every leased shard whose
// lease expired before now.
func (c *Coordinator) reclaimExpired(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		fj := c.jobs[id]
		if fj == nil || fj.err != nil {
			continue
		}
		for _, sid := range fj.order {
			sh := fj.shards[sid]
			if sh.rec.State == shardLeased && now.After(sh.expires) {
				c.expiries.Add(1)
				c.endLeaseLocked(fj, sh, fmt.Sprintf("lease on %s expired (worker %s silent past %v)",
					sid, sh.rec.Worker, c.ttl))
			}
		}
	}
}

// endLeaseLocked charges a failed/expired lease against the shard and
// either re-queues or quarantines it. Quarantine fails the whole job:
// a shard that poisons MaxAttempts workers will poison the rest of the
// fleet too. Caller holds c.mu.
func (c *Coordinator) endLeaseLocked(fj *fleetJob, sh *shard, reason string) {
	sh.rec.Attempts++
	sh.rec.Worker = ""
	sh.rec.Error = reason
	if sh.rec.Attempts >= c.maxAttempts {
		sh.rec.State = shardQuarantined
		_ = c.st.PutShard(&sh.rec)
		c.failJobLocked(fj, fmt.Errorf("fleet: shard %s quarantined after %d failed leases: %s",
			sh.rec.ID, sh.rec.Attempts, reason))
		return
	}
	sh.rec.State = shardQueued
	sh.rec.Requeues++
	c.requeues.Add(1)
	_ = c.st.PutShard(&sh.rec)
	c.signalQueuedLocked()
}

// signalQueuedLocked wakes every parked lease: a shard just became
// leasable. Caller holds c.mu.
func (c *Coordinator) signalQueuedLocked() {
	close(c.queued)
	c.queued = make(chan struct{})
}

// failJobLocked ends a job's Execute with err. Caller holds c.mu.
func (c *Coordinator) failJobLocked(fj *fleetJob, err error) {
	if fj.err != nil {
		return
	}
	fj.err = err
	close(fj.finished)
}

// shardID names a shard within its job.
func shardID(variant, lo, hi int) string {
	return fmt.Sprintf("v%d-%d-%d", variant, lo, hi)
}

// GlobalShardID is the wire token naming a shard across jobs — the
// {id} segment of the /fleet/shards/ routes. Job ids and shard ids
// never contain a dot, so the first dot splits unambiguously.
func GlobalShardID(jobID, shardID string) string {
	return jobID + "." + shardID
}

// SplitShardID parses a GlobalShardID.
func SplitShardID(global string) (jobID, shardID string, err error) {
	for i := 0; i < len(global); i++ {
		if global[i] == '.' {
			if i == 0 || i == len(global)-1 {
				break
			}
			return global[:i], global[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("fleet: malformed shard id %q", global)
}

// Execute implements job.Executor: it shards the job, opens it for
// leasing, and blocks until every shard's rows have merged (returning
// the result), a shard is quarantined (returning its error), or ctx is
// cancelled (leaving the persisted shard table in place so the next
// Execute of the same job resumes it: done shards replay their stored
// payloads instead of re-running).
func (c *Coordinator) Execute(ctx context.Context, j *job.Job) (*store.Result, error) {
	fj, err := c.openJob(j)
	if err != nil {
		return nil, err
	}
	select {
	case <-ctx.Done():
		c.detach(fj.id)
		return nil, ctx.Err()
	case <-fj.finished:
	}
	c.mu.Lock()
	err = fj.err
	c.mu.Unlock()
	c.detach(fj.id)
	if err != nil {
		return nil, err
	}
	// Every replica committed gap-free, so the accumulators read out the
	// exact floats a single-node run computes: members merge in replica-
	// index order whichever shard carried them.
	res := &store.Result{Variants: make([]store.Variant, len(fj.specs))}
	times := fj.grid.Times()
	for v := range fj.specs {
		mean, std := fj.accs[v].MeanStd()
		res.Variants[v] = store.Variant{
			Species: fj.specs[v].SpeciesNames(),
			T:       times,
			Mean:    mean,
			Std:     std,
		}
	}
	return res, nil
}

// openJob builds (or recovers) the job's shard table and registers it
// for leasing.
func (c *Coordinator) openJob(j *job.Job) (*fleetJob, error) {
	req := j.Request()
	grid, err := parsurf.NewTimeGrid(req.Until, req.Every)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	fj := &fleetJob{
		id:       j.ID(),
		j:        j,
		specs:    req.Specs,
		raw:      make([]json.RawMessage, len(req.Specs)),
		req:      req,
		grid:     grid,
		accs:     make([]*ensemble.Accumulator, len(req.Specs)),
		shards:   make(map[string]*shard),
		finished: make(chan struct{}),
	}
	for v, sp := range req.Specs {
		raw, err := json.Marshal(sp)
		if err != nil {
			return nil, fmt.Errorf("fleet: spec %d is not serializable: %w", v, err)
		}
		fj.raw[v] = raw
		// Window = replica count: shard commits arrive in arbitrary
		// order and must never block on the reorder buffer.
		fj.accs[v] = ensemble.NewAccumulator(sp.NumSpecies(), grid.Len(), req.Replicas)
	}
	// The deterministic split, variant-major then lo-ascending.
	for v := range req.Specs {
		for lo := 0; lo < req.Replicas; lo += c.shardSize {
			hi := lo + c.shardSize
			if hi > req.Replicas {
				hi = req.Replicas
			}
			id := shardID(v, lo, hi)
			fj.order = append(fj.order, id)
			fj.shards[id] = &shard{rec: store.ShardRecord{
				ID: id, JobID: fj.id, Variant: v, Lo: lo, Hi: hi, State: shardQueued,
			}}
		}
	}
	fj.remaining = len(fj.order)
	if err := c.recoverShards(fj); err != nil {
		return nil, err
	}
	// Write-ahead: every shard record is durable before the shard is
	// leasable, so a crash after this point recovers the exact table.
	for _, id := range fj.order {
		if err := c.st.PutShard(&fj.shards[id].rec); err != nil {
			return nil, fmt.Errorf("fleet: persisting shard table of %s: %w", fj.id, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.jobs[fj.id]; dup {
		return nil, fmt.Errorf("fleet: job %s is already executing", fj.id)
	}
	c.jobs[fj.id] = fj
	c.order = append(c.order, fj.id)
	if fj.remaining == 0 {
		// Every shard replayed from storage: the job is already whole.
		close(fj.finished)
	} else if fj.err == nil {
		c.signalQueuedLocked()
	}
	return fj, nil
}

// recoverShards folds the job's stored shard records into the freshly
// split table: a stored record matching a split shard carries its
// attempts/requeues forward, and one stored as done replays its stored
// payload through the accumulator instead of re-running. Stored leases
// are transient and re-queue. Records that no longer match the split
// (the shard size changed across restarts) are ignored — the shards
// just re-run, which is always safe.
func (c *Coordinator) recoverShards(fj *fleetJob) error {
	recs, err := c.st.Shards(fj.id)
	if err != nil {
		return fmt.Errorf("fleet: listing shards of %s: %w", fj.id, err)
	}
	for _, rec := range recs {
		sh, ok := fj.shards[rec.ID]
		if !ok || rec.Variant != sh.rec.Variant || rec.Lo != sh.rec.Lo || rec.Hi != sh.rec.Hi {
			continue
		}
		sh.rec.Attempts = rec.Attempts
		sh.rec.Requeues = rec.Requeues
		sh.rec.Error = rec.Error
		switch rec.State {
		case shardDone:
			data, err := c.st.GetShardResult(fj.id, rec.ID)
			if err != nil {
				continue // blob lost: re-run the shard
			}
			res, err := decodeShardResult(data)
			if err != nil || !fj.payloadMatches(res, &sh.rec) {
				continue // blob corrupt or stale: re-run the shard
			}
			if err := fj.commit(res); err != nil {
				return err
			}
			sh.rec.State = shardDone
			fj.remaining--
		case shardQuarantined:
			// A quarantined shard survived the restart: the job is still
			// poisoned. Leave the record; openJob re-persists it and the
			// first Execute wait sees the error.
			sh.rec.State = shardQuarantined
			fj.err = fmt.Errorf("fleet: shard %s quarantined after %d failed leases: %s",
				rec.ID, rec.Attempts, rec.Error)
		}
	}
	if fj.err != nil {
		// Close here (not under c.mu — the job is not yet registered) so
		// Execute observes the quarantine immediately.
		close(fj.finished)
	}
	return nil
}

// payloadMatches validates a decoded shard payload against its record
// and the job's shape.
func (fj *fleetJob) payloadMatches(res *ShardResult, rec *store.ShardRecord) bool {
	return res.Variant == rec.Variant && res.Lo == rec.Lo && res.Hi == rec.Hi &&
		res.Variant < len(fj.specs) &&
		len(res.Rows) > 0 &&
		len(res.Rows[0]) == fj.specs[res.Variant].NumSpecies() &&
		len(res.Rows[0][0]) == fj.grid.Len()
}

// commit merges one shard payload: every replica's rows enter the
// variant's accumulator under its absolute index (the window admits
// all of them immediately; ordering happens inside), and the job's
// progress slots take the replicas' final counters. This is the
// coordinator's merge hot path — per replica, per shard, for every
// job in the fleet — and stays allocation-free.
//
//surflint:hotpath
func (fj *fleetJob) commit(res *ShardResult) error {
	acc := fj.accs[res.Variant]
	for k, i := 0, res.Lo; i < res.Hi; k, i = k+1, i+1 {
		if err := acc.Add(context.Background(), i, res.Rows[k]); err != nil {
			return err
		}
		fj.j.SetReplicaProgress(res.Variant, i, res.Steps[k], res.Times[k])
	}
	fj.j.AddMerged(int64(res.Hi-res.Lo) * int64(fj.grid.Len()))
	return nil
}

// detach unregisters a job from the lease queue, leaving its persisted
// shard table alone (DropJob removes that, and only for jobs that will
// never resume).
func (c *Coordinator) detach(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.jobs[id]; !ok {
		return
	}
	delete(c.jobs, id)
	keep := c.order[:0]
	for _, jid := range c.order {
		if jid != id {
			keep = append(keep, jid)
		}
	}
	c.order = keep
}

// Lease hands the first queued shard (job FIFO, then variant-major
// shard order) to the named worker, or reports ok=false when nothing
// is queued. The leased record is durable before the grant leaves.
//
// With wait > 0 an empty queue does not answer at once: the call parks
// until a shard becomes leasable (a job opens, or a failed or expired
// lease re-queues its shard) and returns that grant. It gives up with
// ok=false when wait elapses, ctx ends, or the coordinator closes. A
// queued shard whose lease the store refused to persist also answers
// at once, so workers fall back to polling while the store recovers.
func (c *Coordinator) Lease(ctx context.Context, worker string, wait time.Duration) (*Grant, bool) {
	var bound <-chan time.Time
	for {
		c.mu.Lock()
		grant, queued := c.leaseLocked(worker)
		wake := c.queued
		c.mu.Unlock()
		if grant != nil {
			return grant, true
		}
		if queued || wait <= 0 {
			return nil, false
		}
		if bound == nil {
			t := time.NewTimer(wait)
			defer t.Stop()
			bound = t.C
		}
		select {
		case <-wake:
		case <-bound:
			return nil, false
		case <-ctx.Done():
			return nil, false
		case <-c.stop:
			return nil, false
		}
	}
}

// leaseLocked leases the first queued shard. A nil grant with
// queued=true means a shard was queued but its lease could not be made
// durable. Caller holds c.mu.
func (c *Coordinator) leaseLocked(worker string) (grant *Grant, queued bool) {
	for _, id := range c.order {
		fj := c.jobs[id]
		if fj == nil || fj.err != nil {
			continue
		}
		for _, sid := range fj.order {
			sh := fj.shards[sid]
			if sh.rec.State != shardQueued {
				continue
			}
			sh.rec.State = shardLeased
			sh.rec.Worker = worker
			if err := c.st.PutShard(&sh.rec); err != nil {
				// The lease is not durable: take it back and stop handing
				// out work until the store recovers.
				sh.rec.State = shardQueued
				sh.rec.Worker = ""
				return nil, true
			}
			sh.expires = time.Now().Add(c.ttl)
			c.leases.Add(1)
			return &Grant{
				Shard:       GlobalShardID(fj.id, sid),
				Job:         fj.id,
				Hash:        fj.j.Hash(),
				Variant:     sh.rec.Variant,
				Lo:          sh.rec.Lo,
				Hi:          sh.rec.Hi,
				Spec:        fj.raw[sh.rec.Variant],
				Until:       fj.req.Until,
				Every:       fj.req.Every,
				LeaseMillis: c.ttl.Milliseconds(),
			}, true
		}
	}
	return nil, false
}

// Heartbeat renews a worker's lease and folds the reported replica
// counters into the job's progress slots. ErrGone tells the worker its
// lease no longer exists — abandon the shard.
func (c *Coordinator) Heartbeat(jobID, shardID, worker string, progress []ReplicaProgress) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fj := c.jobs[jobID]
	if fj == nil || fj.err != nil {
		return ErrGone
	}
	sh := fj.shards[shardID]
	if sh == nil || sh.rec.State != shardLeased || sh.rec.Worker != worker {
		return ErrGone
	}
	sh.expires = time.Now().Add(c.ttl)
	for _, rp := range progress {
		if rp.Replica >= sh.rec.Lo && rp.Replica < sh.rec.Hi {
			fj.j.SetReplicaProgress(sh.rec.Variant, rp.Replica, rp.Steps, rp.Time)
		}
	}
	return nil
}

// Result accepts one shard's wire payload. The rows commit in
// replica-index order through the job's accumulator; the blob persists
// before the record flips to done (so a recovered "done" always finds
// its payload). Results are accepted from any worker — the payload is
// a pure function of the spec, so a late upload from a worker whose
// lease already expired is still exact — and re-uploads of a done
// shard are idempotent successes.
func (c *Coordinator) Result(jobID, shardID, worker string, data []byte) error {
	res, err := decodeShardResult(data)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fj := c.jobs[jobID]
	if fj == nil || fj.err != nil {
		return ErrGone
	}
	sh := fj.shards[shardID]
	if sh == nil {
		return ErrGone
	}
	if sh.rec.State == shardDone {
		return nil
	}
	if !fj.payloadMatches(res, &sh.rec) {
		return fmt.Errorf("fleet: payload does not match shard %s (variant %d replicas [%d, %d))",
			shardID, sh.rec.Variant, sh.rec.Lo, sh.rec.Hi)
	}
	if err := c.st.PutShardResult(jobID, shardID, data); err != nil {
		return fmt.Errorf("fleet: persisting shard result: %w", err)
	}
	if err := fj.commit(res); err != nil {
		return err
	}
	sh.rec.State = shardDone
	sh.rec.Worker = ""
	sh.rec.Error = ""
	_ = c.st.PutShard(&sh.rec)
	c.shardsDone.Add(1)
	fj.remaining--
	if fj.remaining == 0 {
		close(fj.finished)
	}
	return nil
}

// Fail records a worker-reported shard failure, re-queueing the shard
// (or quarantining it past the attempt budget, which fails the job).
// Failing a shard that is already done is a no-op: its result arrived
// first and wins.
func (c *Coordinator) Fail(jobID, shardID, worker, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fj := c.jobs[jobID]
	if fj == nil || fj.err != nil {
		return ErrGone
	}
	sh := fj.shards[shardID]
	if sh == nil {
		return ErrGone
	}
	if sh.rec.State == shardDone {
		return nil
	}
	if sh.rec.State != shardLeased || sh.rec.Worker != worker {
		return ErrGone
	}
	c.endLeaseLocked(fj, sh, fmt.Sprintf("worker %s: %s", worker, reason))
	return nil
}

// JobShards implements job.Executor: the job's shard statuses in
// deterministic (variant-major) order, or nil for jobs the coordinator
// is not executing.
func (c *Coordinator) JobShards(jobID string) []job.ShardStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	fj := c.jobs[jobID]
	if fj == nil {
		return nil
	}
	out := make([]job.ShardStatus, 0, len(fj.order))
	for _, sid := range fj.order {
		rec := fj.shards[sid].rec
		out = append(out, job.ShardStatus{
			ID:       rec.ID,
			Variant:  rec.Variant,
			Lo:       rec.Lo,
			Hi:       rec.Hi,
			State:    rec.State,
			Worker:   rec.Worker,
			Attempts: rec.Attempts,
			Requeues: rec.Requeues,
			Error:    rec.Error,
		})
	}
	return out
}

// DropJob implements job.Executor: a terminally finished job's shard
// records and payload blobs leave the store (best-effort — leftovers
// are dead weight, not corruption).
func (c *Coordinator) DropJob(jobID string) {
	c.detach(jobID)
	_ = c.st.DeleteShards(jobID)
}

// ShardSummary counts a coordinator's shards by state across active
// jobs, for GET /fleet/status.
type ShardSummary struct {
	Queued      int `json:"queued"`
	Leased      int `json:"leased"`
	Done        int `json:"done"`
	Quarantined int `json:"quarantined"`
}

// Summary snapshots the active job count and shard-state totals.
func (c *Coordinator) Summary() (jobs int, shards ShardSummary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		fj := c.jobs[id]
		if fj == nil {
			continue
		}
		jobs++
		for _, sid := range fj.order {
			switch fj.shards[sid].rec.State {
			case shardQueued:
				shards.Queued++
			case shardLeased:
				shards.Leased++
			case shardDone:
				shards.Done++
			case shardQuarantined:
				shards.Quarantined++
			}
		}
	}
	return jobs, shards
}
