// Engine checkpoint payloads (registry.Engine.SaveState/LoadState) for
// the exact DMC engines. Every field that Reset re-derives differently
// than N steps of history would have left it is saved verbatim; state
// that is a pure function of the configuration is rebuilt by Reset and
// only corrected here where the evolution order matters (swap-remove
// list orderings, event queues, drifted Fenwick nodes).

package dmc

import (
	"fmt"
	"io"
	"math"

	"parsurf/internal/eventq"
	"parsurf/internal/persist"
)

// SaveState writes the RSM clock and counters; the raw source state is
// saved by the surrounding checkpoint.
func (r *RSM) SaveState(w io.Writer) error {
	e := persist.NewWriter(w)
	e.F64(r.time)
	e.U64(r.steps)
	e.U64(r.trials)
	e.U64(r.successes)
	return e.Err()
}

// LoadState restores a payload written by SaveState.
func (r *RSM) LoadState(rd io.Reader) error {
	d := persist.NewReader(rd)
	r.time = d.F64()
	r.steps = d.U64()
	r.trials = d.U64()
	r.successes = d.U64()
	return d.Err()
}

// SaveState writes the VSSM clock, counters, enabled-list orderings and
// the raw Fenwick nodes. The list order is history-dependent (refresh
// removes by swap-with-last), and the tree nodes carry the exact
// floating-point residue of the interleaved signed adds — both must
// survive verbatim for the resumed site draws to replay bit-exactly.
func (v *VSSM) SaveState(w io.Writer) error {
	e := persist.NewWriter(w)
	e.F64(v.time)
	e.U64(v.events)
	e.U32(uint32(len(v.enabled)))
	for _, list := range v.enabled {
		e.U32(uint32(len(list)))
		for _, s := range list {
			e.U32(uint32(s))
		}
	}
	nodes, adds := v.typeRates.State(nil)
	e.U64(adds)
	e.U32(uint32(len(nodes)))
	for _, node := range nodes {
		e.F64(node)
	}
	return e.Err()
}

// LoadState restores a payload written by SaveState. Reset has already
// rebuilt the enabled sets from the configuration; the saved ordering
// and tree nodes overwrite them. The restored lists must then name
// exactly the enabled (type, site) pairs of that configuration — a
// stray site would let Step execute a disabled reaction — and each tree
// weight must match k_rt·|enabled_rt| up to drift, or the resumed draws
// and clock would be skewed (or NaN). The clock must be finite and
// non-negative.
func (v *VSSM) LoadState(rd io.Reader) error {
	d := persist.NewReader(rd)
	simTime := d.F64()
	if d.Err() == nil && (math.IsNaN(simTime) || math.IsInf(simTime, 0) || simTime < 0) {
		d.Failf("dmc: vssm payload clock %v", simTime)
	}
	events := d.U64()
	numTypes := d.U32()
	if d.Err() == nil && int(numTypes) != len(v.enabled) {
		d.Failf("dmc: vssm payload has %d reaction types, engine has %d", numTypes, len(v.enabled))
	}
	n := v.cm.Lat.N()
	for rt := 0; rt < int(numTypes) && d.Err() == nil; rt++ {
		k := d.U32()
		if d.Err() == nil && int(k) > n {
			d.Failf("dmc: vssm payload lists %d enabled sites of %d", k, n)
			break
		}
		list := v.enabled[rt][:0]
		clear(v.pos[rt])
		for i := 0; i < int(k); i++ {
			s := d.U32()
			if d.Err() != nil {
				break
			}
			if int(s) >= n || v.pos[rt][s] != 0 {
				d.Failf("dmc: vssm payload site %d invalid or duplicate", s)
				break
			}
			list = append(list, int32(s))
			v.pos[rt][s] = int32(len(list))
		}
		v.enabled[rt] = list
	}
	adds := d.U64()
	nn := d.U32()
	// Sized by the engine, not the claim, so a corrupt count cannot
	// force a huge allocation; Restore rejects a wrong count.
	nodes := make([]float64, 0, v.typeRates.Len()+1)
	for i := 0; i < int(nn) && d.Err() == nil; i++ {
		nodes = append(nodes, d.F64())
	}
	if err := d.Err(); err != nil {
		return err
	}
	if rt, s, ok := v.CheckConsistency(); !ok {
		return fmt.Errorf("dmc: vssm payload disagrees with the configuration on reaction %d at site %d", rt, s)
	}
	if err := v.typeRates.Restore(nodes, adds, v.typeRate, float64(n)*v.cm.K); err != nil {
		return err
	}
	v.time = simTime
	v.events = events
	return nil
}

// SaveState writes the FRM clock, counters and the scheduled events
// sorted by (time, key), the queue's Snapshot order. The per-type
// instance counts are not saved: LoadState derives them from the keys.
func (f *FRM) SaveState(w io.Writer) error {
	e := persist.NewWriter(w)
	e.F64(f.time)
	e.U64(f.events)
	snap := f.queue.Snapshot(nil)
	e.U32(uint32(len(snap)))
	for _, ev := range snap {
		e.F64(ev.Time)
		e.I64(ev.Key)
	}
	return e.Err()
}

// LoadState restores a payload written by SaveState. The clock must be
// finite and non-negative, and every event time finite and no earlier
// than the clock, or the resumed run would step its clock backwards.
// The events must be sorted by (time, key) (eventq.Restore checks it),
// and their keys must be exactly the enabled (type, site) pairs of the
// configuration Reset installed; the per-type counts are tallied from
// those keys.
func (f *FRM) LoadState(rd io.Reader) error {
	d := persist.NewReader(rd)
	simTime := d.F64()
	if d.Err() == nil && (math.IsNaN(simTime) || math.IsInf(simTime, 0) || simTime < 0) {
		d.Failf("dmc: frm payload clock %v", simTime)
	}
	events := d.U64()
	k := d.U32()
	if d.Err() == nil && int(k) > f.queue.KeySpace() {
		d.Failf("dmc: frm payload schedules %d events in a key space of %d", k, f.queue.KeySpace())
	}
	snap := make([]eventq.Event, 0, min(int(k), f.queue.KeySpace()))
	for i := 0; i < int(k) && d.Err() == nil; i++ {
		t := d.F64()
		key := d.I64()
		if d.Err() == nil && (math.IsInf(t, 0) || !(t >= simTime)) {
			d.Failf("dmc: frm payload event %d at time %v, clock %v", i, t, simTime)
		}
		snap = append(snap, eventq.Event{Time: t, Key: key})
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := f.queue.Restore(snap); err != nil {
		return err
	}
	clear(f.scheduled)
	for _, ev := range snap {
		rt, _ := f.unkey(ev.Key)
		f.scheduled[rt]++
	}
	if rt, s, ok := f.CheckConsistency(); !ok {
		return fmt.Errorf("dmc: frm payload disagrees with the configuration on reaction %d at site %d", rt, s)
	}
	f.time = simTime
	f.events = events
	return nil
}
