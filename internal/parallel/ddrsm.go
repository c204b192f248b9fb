// Package parallel implements the chunk-parallel DMC approach of Segers
// et al. that §3 of the paper describes as the prior art its partitioned
// CA methods are an alternative to: the lattice is decomposed into
// coherent strips, one worker simulates each strip with RSM, and
// reactions that touch strip boundaries require synchronisation between
// neighbours. The paper's observation — that communication overhead
// makes this profitable only when work per chunk is large relative to
// the boundary — is what internal/machine quantifies.
//
// The MPI communication of the original is rebuilt with goroutines and
// channels: boundary trials are shipped over a channel to a sequential
// resolution phase, a window-synchronisation scheme used by parallel
// KMC codes.
package parallel

import (
	"cmp"
	"fmt"
	"slices"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
)

// DDRSM is the domain-decomposed Random Selection Method. One step is
// one MC step (N trials): every worker attempts |strip| trials at
// uniform sites of its strip; trials whose reaction pattern could reach
// outside the strip's interior are deferred over a channel and executed
// sequentially after a barrier. Within a window of one step this
// approximates RSM; the deferral is the accuracy cost of batching the
// communication.
type DDRSM struct {
	cm    *model.Compiled
	cfg   *lattice.Config
	cells []lattice.Species
	src   *rng.Source

	strips []strip
	radius int
	time   float64

	// DeterministicTime advances 1/(N·K) per trial instead of Exp(N·K).
	DeterministicTime bool

	trials    uint64
	successes uint64
	deferred  uint64
	barriers  uint64
	steps     uint64

	// Per-step scratch, reused so the steady-state step allocates
	// nothing: the per-step base stream, one result record per strip
	// (each with its deferred-trial buffer), the merged deferral list,
	// and the fan-out over the strips.
	stepBase    rng.Source
	results     []stripResult
	allDeferred []deferredTrial
	fan         *Fanout
}

// stripResult is one strip's outcome of the step in flight. The strip
// goroutine stores it once, at the end of the strip; the sequential
// merge phase reads the records in strip order after the barrier.
type stripResult struct {
	deferred  []deferredTrial
	successes uint64
	dt        float64
}

type strip struct {
	loRow, hiRow int // [loRow, hiRow)
	sites        int
}

type deferredTrial struct {
	site int
	rt   int
}

// NewDDRSM decomposes the lattice into p horizontal strips. Every strip
// must be at least 2·radius+1 rows tall so its interior is non-empty.
func NewDDRSM(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, p int) (*DDRSM, error) {
	if !cfg.Lattice().SameShape(cm.Lat) {
		return nil, fmt.Errorf("parallel: configuration lattice differs from compiled lattice")
	}
	if p < 1 {
		return nil, fmt.Errorf("parallel: need at least one strip, got %d", p)
	}
	radius := cm.Model.MaxPatternRadius()
	rows := cm.Lat.L1
	if rows/p < 2*radius+1 {
		return nil, fmt.Errorf("parallel: %d rows cannot host %d strips of >= %d rows", rows, p, 2*radius+1)
	}
	d := &DDRSM{cm: cm, cfg: cfg, cells: cfg.Cells(), src: src, radius: radius}
	for w := 0; w < p; w++ {
		lo := w * rows / p
		hi := (w + 1) * rows / p
		d.strips = append(d.strips, strip{loRow: lo, hiRow: hi, sites: (hi - lo) * cm.Lat.L0})
	}
	d.results = make([]stripResult, p)
	// Deferred trials land in the 2·radius boundary rows of each strip,
	// so a step defers about 2·radius·L0 trials per strip on average
	// (binomial, sd ≈ √mean). Presizing the buffers at 4× the mean puts
	// the capacity tens of standard deviations above any count a run
	// will ever see, so the steady-state step allocates nothing.
	band := 4 * 2 * radius * cm.Lat.L0
	for w := range d.results {
		d.results[w].deferred = make([]deferredTrial, 0, band)
	}
	d.allDeferred = make([]deferredTrial, 0, band*p)
	d.fan = NewFanout(d.runStrip)
	return d, nil
}

// Reset rewinds the engine over a fresh configuration (see
// registry.Engine.Reset). The strip decomposition is kept; the step
// counter rewinds, which also rewinds the per-step derived stream ids,
// so a reset engine reproduces a fresh one's trajectory exactly.
func (d *DDRSM) Reset(cfg *lattice.Config, src *rng.Source) {
	if !cfg.Lattice().SameShape(d.cm.Lat) {
		panic("parallel: Reset configuration lattice differs from compiled lattice")
	}
	d.cfg, d.cells, d.src = cfg, cfg.Cells(), src
	d.time = 0
	d.trials, d.successes, d.deferred, d.barriers, d.steps = 0, 0, 0, 0, 0
}

// Workers returns the number of strips.
func (d *DDRSM) Workers() int { return len(d.strips) }

// Step performs one windowed MC step.
//
//surflint:hotpath
func (d *DDRSM) Step() bool {
	// Per-step derived streams make the outcome independent of
	// goroutine scheduling.
	d.steps++
	d.src.SplitInto(&d.stepBase, d.steps)
	d.fan.Run(len(d.strips)) // barrier: all interior work done
	d.barriers++

	// Sequential boundary phase. Subtotals merge in strip order so the
	// floating-point time sum is deterministic (goroutine completion
	// order must not leak into the clock); the deferred trials are then
	// re-sorted by (site, rt) — their intra-window order is unspecified
	// anyway, which is exactly the windowing approximation. The merge
	// buffer and every per-strip deferral buffer are struct-held and
	// reused, so the steady-state step allocates nothing.
	allDeferred := d.allDeferred[:0]
	for w := range d.results {
		r := &d.results[w]
		d.successes += r.successes
		d.trials += uint64(d.strips[w].sites)
		d.time += r.dt
		allDeferred = append(allDeferred, r.deferred...)
	}
	d.allDeferred = allDeferred
	slices.SortFunc(allDeferred, compareDeferred)
	for _, tr := range allDeferred {
		if d.cm.TryExecute(d.cells, tr.rt, tr.site) {
			d.successes++
		}
	}
	d.deferred += uint64(len(allDeferred))
	d.barriers++
	return true
}

// runStrip performs strip w's interior trials for the step in flight:
// one trial per strip site. Its running state stays in locals and is
// stored into the strip's record once, at the end, because the records
// sit side by side in d.results and per-trial writes there would share
// cache lines across strips. Interior trials touch only this strip's
// rows, so concurrent strips cannot race. The drawn row and column are
// in range, so the site index needs no wrap-around, and a trial is
// interior when its pattern radius reaches neither strip edge.
//
//surflint:hotpath
func (d *DDRSM) runStrip(w int) {
	st := d.strips[w]
	nk := float64(d.cm.Lat.N()) * d.cm.K
	l0 := d.cm.Lat.L0
	lo, hi := st.loRow+d.radius, st.hiRow-d.radius // interior rows [lo, hi)
	var stream rng.Source
	d.stepBase.SplitInto(&stream, uint64(w))
	deferred := d.results[w].deferred[:0]
	var successes uint64
	var dt float64
	for i := 0; i < st.sites; i++ {
		row := st.loRow + stream.Intn(st.hiRow-st.loRow)
		col := stream.Intn(l0)
		s := row*l0 + col
		rt := d.cm.PickType(stream.Float64())
		if d.DeterministicTime {
			dt += 1 / nk
		} else {
			dt += stream.Exp(nk)
		}
		if row >= lo && row < hi {
			if d.cm.TryExecute(d.cells, rt, s) {
				successes++
			}
		} else {
			deferred = append(deferred, deferredTrial{site: s, rt: rt})
		}
	}
	d.results[w] = stripResult{deferred: deferred, successes: successes, dt: dt}
}

// compareDeferred orders deferred trials by (site, rt). Trials with
// equal keys are equal values, so any sort yields the same order.
func compareDeferred(a, b deferredTrial) int {
	return cmp.Or(cmp.Compare(a.site, b.site), cmp.Compare(a.rt, b.rt))
}

// Time returns the simulated time.
func (d *DDRSM) Time() float64 { return d.time }

// Config returns the live configuration.
func (d *DDRSM) Config() *lattice.Config { return d.cfg }

// Trials returns the attempted trials.
func (d *DDRSM) Trials() uint64 { return d.trials }

// Successes returns the executed reactions.
func (d *DDRSM) Successes() uint64 { return d.successes }

// Deferred returns the number of boundary trials shipped to the
// sequential phase — the communication volume of the decomposition.
func (d *DDRSM) Deferred() uint64 { return d.deferred }

// Barriers returns the number of synchronisation barriers so far.
func (d *DDRSM) Barriers() uint64 { return d.barriers }
