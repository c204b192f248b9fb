package parsurf

import (
	"context"
	"fmt"
	"sync"

	"parsurf/internal/ensemble"
	"parsurf/internal/sim"
	"parsurf/internal/timegrid"
)

// TimeGrid is the shared sampling-and-merge grid of the ensemble
// runner: the points 0, every, 2·every, … up to `until`, plus a tail
// point at exactly `until` when the horizon is off the step lattice.
// Points are derived from their index (i·every, never an accumulated
// sum), and replicas sample on the very grid the merge aggregates, so
// the Mean/Std series and every replica's coverage series always share
// the same exact float64 time points — no interpolation, no
// truncated-grid misalignment.
type TimeGrid = timegrid.Grid

// NewTimeGrid returns the grid RunEnsemble and RunSweep use for the
// given horizon and sampling interval.
func NewTimeGrid(until, every float64) (TimeGrid, error) {
	return timegrid.New(until, every)
}

// Ensemble is the merged outcome of RunEnsemble (or one variant of
// RunSweep). Replicas stream through the merge and are released, so
// only the O(species × grid) moments are retained; RunReplicaRange
// returns raw per-replica rows, and ObserveReplicas reaches each
// replica's live session.
type Ensemble struct {
	// Grid is the time grid every replica sampled on and Mean/Std are
	// defined over.
	Grid TimeGrid
	// Mean and Std are the per-species pointwise mean and sample
	// standard deviation across replicas, on the Grid points.
	Mean []*Series
	Std  []*Series
}

// ReplicaObserver is a per-replica hook invoked at every grid point,
// on the replica's worker goroutine, with the replica's live session —
// variant is the spec index of a RunSweep (always 0 for RunEnsemble).
// Calls for one replica arrive in grid order from a single goroutine;
// calls for different replicas are concurrent, so observers must only
// write to replica-local state (e.g. an element of a pre-sized slice).
// For a replica frozen in an absorbing state the hook still fires at
// every remaining grid point with the final state.
type ReplicaObserver func(variant, replica int, t float64, sess *Session)

// ReplicaCheckpoint is a per-replica checkpoint hook invoked on the
// replica's worker goroutine after each grid point is recorded: k is
// the grid index just sampled, sess the live session (safe to
// Checkpoint — taking a snapshot draws no randomness), and values the
// replica's sample matrix (species × grid points) with columns 0..k
// filled. The hook decides when a snapshot is actually worth taking
// (e.g. rate-limiting by wall clock); returning without doing anything
// costs nothing. Like ReplicaObserver, calls for different replicas are
// concurrent.
type ReplicaCheckpoint func(variant, replica, k int, sess *Session, values [][]float64)

// ReplicaResume is consulted once per replica before it runs. Returning
// ok=true hands the runner a session restored mid-trajectory plus the
// already-recorded sample rows: the replica continues from grid index
// nextK (rows must hold at least nextK samples per species) instead of
// running from scratch. Returning ok=false runs the replica normally.
// Replica observers do not re-fire for the skipped points.
type ReplicaResume func(variant, replica int) (sess *Session, nextK int, rows [][]float64, ok bool)

// EnsembleOption configures RunEnsemble / RunSweep / RunReplicaRange.
type EnsembleOption func(*ensembleConfig)

type ensembleConfig struct {
	observers  []ReplicaObserver
	checkpoint ReplicaCheckpoint
	resume     ReplicaResume
}

// ObserveReplicas registers a per-replica observer (see
// ReplicaObserver) — the streaming-friendly way to extract
// engine-specific measurements (reaction counters, poisoning flags)
// without retaining whole replicas.
func ObserveReplicas(obs ReplicaObserver) EnsembleOption {
	return func(c *ensembleConfig) { c.observers = append(c.observers, obs) }
}

// CheckpointReplicas registers the per-replica snapshot pair: save (see
// ReplicaCheckpoint) runs after every recorded grid point, and resume
// (see ReplicaResume) is consulted once before each replica starts.
// Either may be nil. At most one pair is active; later options win.
func CheckpointReplicas(save ReplicaCheckpoint, resume ReplicaResume) EnsembleOption {
	return func(c *ensembleConfig) { c.checkpoint, c.resume = save, resume }
}

// replicaStreamID derives replica i's engine stream from the spec seed.
// Offset by one so replica streams never collide with Split(0) children
// a user might derive from the same seed.
func replicaStreamID(i int) uint64 { return uint64(i) + 1 }

// replicaSlot is one pooled replica context: a reusable session (built
// once, rewound with Session.Reset for every subsequent replica index
// it runs), the stable storage of its engine stream, and the
// occupancy-count scratch of the grid sampler. Which slot runs which
// replica index is irrelevant to the result: the trajectory is a
// function of (spec, replica stream) only, by the Reset contract.
type replicaSlot struct {
	sess   *Session
	stream RNG
	counts []int
}

// slotPool hands replica slots to the ensemble workers. A plain
// locked free list (not sync.Pool): slots must survive GC cycles for
// the whole run, and the pool never outlives its run. At most
// `workers` slots exist per variant.
type slotPool struct {
	mu   sync.Mutex
	free []*replicaSlot
}

func (p *slotPool) get() *replicaSlot {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return &replicaSlot{}
}

func (p *slotPool) put(s *replicaSlot) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// valuesPool recycles the per-replica sample grids (species × grid
// points) of the streaming merge. Buffers return through the
// accumulator's release hook once their replica has committed, so at
// most window+workers grids are live per variant regardless of the
// replica count.
type valuesPool struct {
	mu     sync.Mutex
	vars   int
	points int
	free   [][][]float64
}

func (p *valuesPool) get() [][]float64 {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	values := make([][]float64, p.vars)
	for sp := range values {
		values[sp] = make([]float64, p.points)
	}
	return values
}

func (p *valuesPool) put(v [][]float64) {
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}

// RunEnsemble runs independent replicas of the spec'd simulation and
// merges their coverage series. Replica i draws from the split stream
// NewRNG(seed).Split(i+1), so the members are statistically independent
// yet fully deterministic: replica trajectories AND the merged Mean/Std
// are bit-identical for every workers value (replicas merge in index
// order no matter when they finish), and workers only sets the number
// of goroutines running replicas concurrently (use runtime.NumCPU()
// for wall-clock speedup on sweeps). Every replica samples all
// species' coverages exactly at the TimeGrid points over [0, until];
// the merged Mean/Std series live on that same grid.
//
// The first replica failure cancels all sibling replicas (they abort
// within one engine step) and is returned as-is; siblings' induced
// context.Canceled errors are never reported in its place.
func RunEnsemble(ctx context.Context, spec *SessionSpec, replicas, workers int, until, every float64, opts ...EnsembleOption) (*Ensemble, error) {
	out, err := RunSweep(ctx, []*SessionSpec{spec}, replicas, workers, until, every, opts...)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// RunSweep runs one ensemble per spec variant — e.g. a y_CO grid for a
// phase diagram — over a single worker pool spanning every
// (variant, replica) job, so a whole parameter sweep parallelises as
// one flat job set with no per-variant barrier. Each variant's
// replicas draw from that variant spec's seed exactly as RunEnsemble's
// do, and each variant merges on the shared TimeGrid; results are
// bit-identical for every workers value. The first failure anywhere
// cancels every remaining job, and the returned error is that
// failure, not an induced cancellation.
func RunSweep(ctx context.Context, specs []*SessionSpec, replicas, workers int, until, every float64, opts ...EnsembleOption) ([]*Ensemble, error) {
	r, err := newReplicaRun(specs, 0, replicas, until, every, opts)
	if err != nil {
		return nil, err
	}
	accs := make([]*ensemble.Accumulator, len(specs))
	for v, spec := range specs {
		// The reorder window bounds the streaming buffer at roughly the
		// worker count even when one early replica far outlives its
		// siblings; committed sample grids go back to the pool.
		accs[v] = ensemble.NewAccumulator(spec.NumSpecies(), r.grid.Len(), workers)
		accs[v].SetRelease(r.bufs[v].put)
	}
	err = r.run(ctx, 0, workers, func(ctx context.Context, v, i int, values [][]float64) error {
		return accs[v].Add(ctx, i, values)
	})
	if err != nil {
		return nil, err
	}
	times := r.grid.Times() // one shared copy: every Mean/Std series points at it
	out := make([]*Ensemble, len(specs))
	for v := range out {
		mean, std := accs[v].MeanStd()
		out[v] = &Ensemble{Grid: r.grid, Mean: seriesOnGrid(times, mean), Std: seriesOnGrid(times, std)}
	}
	return out, nil
}

// RunReplicaRange runs replicas lo..hi-1 of one sweep variant — the
// shard primitive of fleet mode, and the way to read raw per-replica
// rows. Each replica i draws exactly the stream a full RunEnsemble
// would hand it (NewRNG(seed).Split(i+1)) and samples on the same
// TimeGrid, so the rows it produces are bit-identical to the rows the
// same replica produces inside a single-node run: a coordinator that
// commits shard rows in replica-index order merges a fleet run to the
// exact floats of a local one, regardless of how the replica space was
// sliced.
//
// The returned rows are indexed i-lo, each a species × grid-points
// matrix. Replicas run through the same pooled runner as RunSweep, and
// the options apply with the given variant index and absolute replica
// indices, so mid-shard snapshots interoperate with the single-node
// checkpoint machinery.
func RunReplicaRange(ctx context.Context, spec *SessionSpec, variant, lo, hi, workers int, until, every float64, opts ...EnsembleOption) ([][][]float64, error) {
	r, err := newReplicaRun([]*SessionSpec{spec}, lo, hi, until, every, opts)
	if err != nil {
		return nil, err
	}
	// Every row survives on the result, so nothing is released back to
	// the sample-grid pool mid-run.
	rows := make([][][]float64, hi-lo)
	err = r.run(ctx, variant, workers, func(_ context.Context, _, i int, values [][]float64) error {
		rows[i-lo] = values
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// replicaRun is one validated RunSweep or RunReplicaRange call:
// replicas lo..hi-1 of every spec, the shared grid, the options, and
// the per-spec session and sample-grid pools.
type replicaRun struct {
	specs  []*SessionSpec
	lo, hi int
	grid   TimeGrid
	cfg    ensembleConfig
	slots  []slotPool
	bufs   []valuesPool
}

// newReplicaRun validates the run shape shared by RunSweep and
// RunReplicaRange.
func newReplicaRun(specs []*SessionSpec, lo, hi int, until, every float64, opts []EnsembleOption) (*replicaRun, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("parsurf: sweep needs at least one spec")
	}
	for v, spec := range specs {
		if spec == nil {
			return nil, fmt.Errorf("parsurf: variant %d is a nil spec", v)
		}
	}
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("parsurf: ensemble needs at least one replica, got range [%d, %d)", lo, hi)
	}
	if until <= 0 || every <= 0 {
		return nil, fmt.Errorf("parsurf: ensemble needs positive until and every, got %v and %v", until, every)
	}
	grid, err := timegrid.New(until, every)
	if err != nil {
		return nil, fmt.Errorf("parsurf: %w", err)
	}
	r := &replicaRun{specs: specs, lo: lo, hi: hi, grid: grid,
		slots: make([]slotPool, len(specs)), bufs: make([]valuesPool, len(specs))}
	for _, opt := range opts {
		opt(&r.cfg)
	}
	for v, spec := range specs {
		r.bufs[v].vars, r.bufs[v].points = spec.NumSpecies(), grid.Len()
	}
	return r, nil
}

// run executes every (spec, replica) job over one worker pool — spec s
// runs as variant base+s in the hooks and errors — and hands each
// finished replica's sample matrix to commit, with the pool's context.
// The first failure cancels every remaining job.
func (r *replicaRun) run(ctx context.Context, base, workers int, commit func(ctx context.Context, s, i int, values [][]float64) error) error {
	n := r.hi - r.lo
	return ensemble.Run(ctx, len(r.specs)*n, workers, func(ctx context.Context, job int) error {
		s, i := job/n, r.lo+job%n
		values, err := r.replica(ctx, s, base+s, i)
		if err == nil {
			err = commit(ctx, s, i, values)
		}
		if err != nil {
			if len(r.specs) > 1 {
				return fmt.Errorf("parsurf: sweep variant %d replica %d: %w", base+s, i, err)
			}
			return fmt.Errorf("parsurf: replica %d: %w", i, err)
		}
		return nil
	})
}

// replica runs member i of spec s (hook variant index variant) through
// a pooled slot and returns its sample matrix. The member starts from
// the resume provider's snapshot when it offers one; otherwise the
// slot's session is built on first use and rewound with Session.Reset
// after that (configuration re-init plus engine rewind over the
// retained buffers). Replica i's stream is NewRNG(seed).Split(i+1),
// rebuilt in place in the slot's stable storage, so a pooled
// trajectory is bit-identical to a fresh build whichever slot runs it.
func (r *replicaRun) replica(ctx context.Context, s, variant, i int) ([][]float64, error) {
	spec, grid := r.specs[s], r.grid
	slot, values := r.slots[s].get(), r.bufs[s].get()
	if slot.counts == nil {
		slot.counts = make([]int, spec.NumSpecies())
	}
	sess, k0, err := r.start(spec, slot, variant, i, values)
	if err == nil {
		n := float64(sess.Lattice().N())
		_, err = sim.RunGridFrom(ctx, sess.Engine(), grid, k0, func(k int, c *Config) {
			slot.counts = c.CountInto(slot.counts)
			for sp := range values {
				values[sp][k] = float64(slot.counts[sp]) / n
			}
			for _, obs := range r.cfg.observers {
				obs(variant, i, grid.At(k), sess)
			}
			if r.cfg.checkpoint != nil {
				r.cfg.checkpoint(variant, i, k, sess, values)
			}
		})
	}
	if err != nil {
		// The slot is not returned: a failing run is about to cancel the
		// whole pool anyway.
		r.bufs[s].put(values)
		return nil, err
	}
	r.slots[s].put(slot)
	return values, nil
}

// start positions replica i for sampling: a resumed session continues
// from grid index k0 with the recorded columns 0..k0-1 copied into
// values (the session is a one-off, never pooled); otherwise the slot's
// own session starts the trajectory from grid index 0.
func (r *replicaRun) start(spec *SessionSpec, slot *replicaSlot, variant, i int, values [][]float64) (sess *Session, k0 int, err error) {
	if r.cfg.resume != nil {
		if sess, k0, rows, ok := r.cfg.resume(variant, i); ok {
			if k0 < 0 || k0 > r.grid.Len() {
				return nil, 0, fmt.Errorf("parsurf: resume index %d outside grid of %d points", k0, r.grid.Len())
			}
			if len(rows) != len(values) {
				return nil, 0, fmt.Errorf("parsurf: resume rows cover %d species, spec has %d", len(rows), len(values))
			}
			for sp := range values {
				if len(rows[sp]) < k0 {
					return nil, 0, fmt.Errorf("parsurf: resume rows hold %d samples, need %d", len(rows[sp]), k0)
				}
				copy(values[sp][:k0], rows[sp][:k0])
			}
			return sess, k0, nil
		}
	}
	var root RNG
	root.Seed(spec.Seed())
	root.SplitInto(&slot.stream, replicaStreamID(i))
	if slot.sess == nil {
		if slot.sess, err = spec.build(&slot.stream); err != nil {
			return nil, 0, err
		}
	} else {
		slot.sess.Reset(&slot.stream)
	}
	return slot.sess, 0, nil
}

// seriesOnGrid wraps per-species sample rows and their shared grid
// times as Series values.
func seriesOnGrid(times []float64, rows [][]float64) []*Series {
	out := make([]*Series, len(rows))
	for i, row := range rows {
		out[i] = &Series{T: times, X: row}
	}
	return out
}
