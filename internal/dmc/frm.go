package dmc

import (
	"parsurf/internal/eventq"
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
)

// FRM is the First Reaction Method: every enabled reaction instance
// (type, site) carries a tentative occurrence time drawn from its
// exponential waiting-time distribution; the earliest event executes.
// State changes reschedule exactly the affected instances; instances
// that stay enabled keep their times, which is correct because the
// exponential distribution is memoryless.
type FRM struct {
	cm    *model.Compiled
	cfg   *lattice.Config
	cells []lattice.Species
	src   *rng.Source
	time  float64

	queue  *eventq.Queue
	n      int // cached lattice size (key arithmetic)
	events uint64
	// scheduled[rt] counts the queued instances of each reaction type.
	// Integer counts are exact, so TotalRate (Σ scheduled[rt]·k_rt,
	// O(types)) carries no floating-point drift no matter how long the
	// run — unlike a float accumulator of interleaved signed adds.
	scheduled []int64

	// expBuf and siteBuf are the batching scratch of scheduleAll.
	expBuf  []float64
	siteBuf []int32
}

// NewFRM builds the engine and schedules all initially enabled
// reactions.
func NewFRM(cm *model.Compiled, cfg *lattice.Config, src *rng.Source) *FRM {
	if !cfg.Lattice().SameShape(cm.Lat) {
		panic("dmc: configuration lattice differs from compiled lattice")
	}
	n := cm.Lat.N()
	f := &FRM{cm: cm, cfg: cfg, cells: cfg.Cells(), src: src,
		queue:     eventq.New(cm.NumTypes() * n),
		n:         n,
		scheduled: make([]int64, cm.NumTypes())}
	f.scheduleAll()
	return f
}

// scheduleAll scans the lattice and schedules every enabled instance.
// Per reaction type the enabled sites are collected first (the scan
// consumes no randomness), then their waiting times come from one
// FillExp batch — the same draw sequence, bit for bit, as one Exp call
// per enabled site in (type ascending, site ascending) order, at a
// fraction of the per-call cost. This is the dominant share of FRM's
// per-replica setup, paid by NewFRM and again by every Reset.
func (f *FRM) scheduleAll() {
	n := f.n
	for rt := 0; rt < f.cm.NumTypes(); rt++ {
		f.siteBuf = f.siteBuf[:0]
		for s := 0; s < n; s++ {
			if f.cm.Enabled(f.cells, rt, s) {
				f.siteBuf = append(f.siteBuf, int32(s))
			}
		}
		k := len(f.siteBuf)
		if k == 0 {
			continue
		}
		if cap(f.expBuf) < k {
			f.expBuf = make([]float64, k)
		}
		waits := f.expBuf[:k]
		f.src.FillExp(waits, f.cm.Types[rt].Rate)
		for i, s := range f.siteBuf {
			f.queue.Schedule(f.key(rt, int(s)), f.time+waits[i])
		}
		f.scheduled[rt] += int64(k)
	}
}

// Reset rewinds the engine over a fresh configuration (see
// registry.Engine.Reset): the event queue is emptied in place (keeping
// its O(types·N) position index), the per-type instance counts are
// zeroed, and the initial schedule re-runs against cfg drawing from
// src.
func (f *FRM) Reset(cfg *lattice.Config, src *rng.Source) {
	if !cfg.Lattice().SameShape(f.cm.Lat) {
		panic("dmc: Reset configuration lattice differs from compiled lattice")
	}
	f.cfg, f.cells, f.src = cfg, cfg.Cells(), src
	f.time = 0
	f.events = 0
	f.queue.Reset()
	clear(f.scheduled)
	f.scheduleAll()
}

func (f *FRM) key(rt, s int) int64 {
	return int64(rt)*int64(f.n) + int64(s)
}

func (f *FRM) unkey(k int64) (rt, s int) {
	n := int64(f.n)
	return int(k / n), int(k % n)
}

// refresh synchronises the queue entry for (rt, s) with the current
// state: schedule newly enabled instances, cancel disabled ones, keep
// still-enabled ones untouched (memorylessness). The post-execution
// bursts are a handful of instances, too small for batched draws to
// beat the per-call Exp (measured; the full-lattice scheduleAll is
// where batching pays), so the hot path keeps the single draws.
func (f *FRM) refresh(rt, s int) {
	k := f.key(rt, s)
	if f.cm.Enabled(f.cells, rt, s) {
		if !f.queue.Contains(k) {
			f.queue.Schedule(k, f.time+f.src.Exp(f.cm.Types[rt].Rate))
			f.scheduled[rt]++
		}
	} else {
		f.remove(rt, s)
	}
}

// remove cancels the queue entry for (rt, s), if any.
func (f *FRM) remove(rt, s int) {
	if f.queue.Remove(f.key(rt, s)) {
		f.scheduled[rt]--
	}
}

// Step executes the earliest scheduled reaction. It reports false from
// an absorbing state (empty queue).
//
//surflint:hotpath
func (f *FRM) Step() bool {
	ev, ok := f.queue.Pop()
	if !ok {
		return false
	}
	f.time = ev.Time
	rt, s := f.unkey(ev.Key)
	f.scheduled[rt]--

	f.cm.Execute(f.cells, rt, s)
	plan := f.cm.Plan(rt)
	for i := range plan {
		c := &plan[i]
		row := f.cm.DepRow(f.cm.ChangedSite(c, s))
		for _, d := range c.Deps {
			if d.Drop {
				f.remove(int(d.RT), int(row[d.Col]))
			} else {
				f.refresh(int(d.RT), int(row[d.Col]))
			}
		}
	}
	f.events++
	return true
}

// Time returns the simulated time.
func (f *FRM) Time() float64 { return f.time }

// Config returns the live configuration.
func (f *FRM) Config() *lattice.Config { return f.cfg }

// Events returns the number of executed reactions.
func (f *FRM) Events() uint64 { return f.events }

// Pending returns the number of scheduled events.
func (f *FRM) Pending() int { return f.queue.Len() }

// CheckConsistency verifies the queue against a full enabledness rescan.
func (f *FRM) CheckConsistency() (rt, s int, ok bool) {
	n := f.cm.Lat.N()
	for r := 0; r < f.cm.NumTypes(); r++ {
		for site := 0; site < n; site++ {
			want := f.cm.Enabled(f.cells, r, site)
			got := f.queue.Contains(f.key(r, site))
			if want != got {
				return r, site, false
			}
		}
	}
	return 0, 0, true
}
