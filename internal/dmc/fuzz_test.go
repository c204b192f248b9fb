package dmc

import (
	"bytes"
	"math"
	"testing"

	"parsurf/internal/rng"
)

// FuzzVSSMLoadState: whatever the bytes, LoadState either errors or
// yields an engine whose enabled sets match its configuration, whose
// total rate is finite and matches Σ k·|enabled| up to Fenwick drift,
// and whose clock stays finite and non-decreasing as it runs on.
func FuzzVSSMLoadState(f *testing.F) {
	v, payload := runVSSM(f)
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte{})
	n := float64(v.cm.Lat.N())
	// Each leaf may sit 1e-6·N·K from its exact weight (the drift the
	// Fenwick tree admits on Restore), so the total may sit one such
	// margin per reaction type away.
	tol := float64(v.cm.NumTypes()) * 1e-6 * n * v.cm.K
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := loadVSSM(v, data)
		if err != nil {
			return
		}
		if rt, s, ok := w.CheckConsistency(); !ok {
			t.Fatalf("accepted payload disagrees with the configuration on reaction %d at site %d", rt, s)
		}
		want := 0.0
		for rt := range w.enabled {
			want += w.typeRate(rt)
		}
		if got := w.TotalRate(); math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-want) > tol {
			t.Fatalf("accepted payload has total rate %v, enabled sets give %v", got, want)
		}
		prev := w.Time()
		for i := 0; i < 100; i++ {
			w.Step()
			now := w.Time()
			if math.IsNaN(now) || math.IsInf(now, 0) || now < prev {
				t.Fatalf("step %d: clock %v after %v", i, now, prev)
			}
			prev = now
		}
	})
}

// FuzzFRMLoadState: whatever the bytes, LoadState either errors or
// yields an engine whose queue holds exactly the enabled instances of
// its configuration, whose per-type counts tally the queue, and whose
// clock stays finite and non-decreasing as it runs on.
func FuzzFRMLoadState(f *testing.F) {
	e := runFRM(f)
	payload := saveFRM(f, e)
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := NewFRM(e.cm, e.cfg.Clone(), rng.New(1))
		if g.LoadState(bytes.NewReader(data)) != nil {
			return
		}
		if rt, s, ok := g.CheckConsistency(); !ok {
			t.Fatalf("accepted payload disagrees with the configuration on reaction %d at site %d", rt, s)
		}
		total := int64(0)
		for _, n := range g.scheduled {
			total += n
		}
		if total != int64(g.Pending()) {
			t.Fatalf("accepted payload counts %d scheduled instances, its queue holds %d", total, g.Pending())
		}
		prev := g.Time()
		if math.IsNaN(prev) || math.IsInf(prev, 0) || prev < 0 {
			t.Fatalf("accepted payload has clock %v", prev)
		}
		for i := 0; i < 100; i++ {
			g.Step()
			now := g.Time()
			if math.IsNaN(now) || math.IsInf(now, 0) || now < prev {
				t.Fatalf("step %d: clock %v after %v", i, now, prev)
			}
			prev = now
		}
	})
}
