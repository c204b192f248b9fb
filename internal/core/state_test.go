package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"parsurf/internal/lattice"
	"parsurf/internal/rng"
)

// A rate-weighted L-PNDCA payload whose last tracker node (the weight
// of the last chunk alone) is NaN or far from the chunk's enabled rate
// must not load: with NaN every later chunk draw is undefined, and a
// wrong finite weight skews the selection.
func TestLPNDCALoadStateRejectsCorruptTrackerNode(t *testing.T) {
	cm, lat := zgbOn(t, 20)
	part := vn5(t, lat)
	e := NewLPNDCA(cm, lattice.NewConfig(lat), rng.New(5), part, 10)
	e.Strategy = RateWeighted
	for i := 0; i < 20; i++ {
		e.Step()
	}
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	load := func(payload []byte) error {
		f := NewLPNDCA(cm, e.cfg.Clone(), rng.New(1), part, 10)
		f.Strategy = RateWeighted
		return f.LoadState(bytes.NewReader(payload))
	}
	if err := load(payload); err != nil {
		t.Fatalf("own payload rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		node float64
	}{{"NaN", math.NaN()}, {"1e6", 1e6}} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), payload...)
			binary.LittleEndian.PutUint64(bad[len(bad)-8:], math.Float64bits(tc.node))
			if err := load(bad); err == nil {
				t.Fatalf("payload with last tracker node %v loaded without error", tc.node)
			}
		})
	}
}

// A payload claiming 2³²-1 chunks or tracker nodes must fail without
// allocating for the claim: the counts are untrusted input.
func TestLPNDCALoadStateInflatedCountsAllocateNothing(t *testing.T) {
	cm, lat := zgbOn(t, 20)
	part := vn5(t, lat)
	e := NewLPNDCA(cm, lattice.NewConfig(lat), rng.New(5), part, 10)
	e.Strategy = RateWeighted
	e.Step()
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	// Clock and four counters precede the chunk count; the tracker node
	// count precedes the nodes at the payload's end.
	for name, off := range map[string]int{
		"chunk count":        40,
		"tracker node count": buf.Len() - 8*(part.NumChunks()+1) - 4,
	} {
		payload := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint32(payload[off:], math.MaxUint32)
		f := NewLPNDCA(cm, e.cfg.Clone(), rng.New(1), part, 10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f.LoadState(bytes.NewReader(payload))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: loading allocated %d bytes", name, n)
		}
		if err == nil {
			t.Errorf("%s: inflated payload loaded without error", name)
		}
	}
}
