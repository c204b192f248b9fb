package persist_test

import (
	"bytes"
	"io"
	"testing"

	"parsurf/internal/dmc"
	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/persist"
	"parsurf/internal/rng"
)

func TestRoundTrip(t *testing.T) {
	lat := lattice.New(7, 5)
	cfg := lattice.NewConfig(lat)
	src := rng.New(42)
	cfg.Randomize([]float64{1, 1, 1}, src.Float64)
	for i := 0; i < 13; i++ {
		src.Uint64()
	}

	var buf bytes.Buffer
	if err := persist.Write(&buf, &persist.Checkpoint{NumSpecies: 3, Time: 12.5, Config: cfg, RNG: src}); err != nil {
		t.Fatal(err)
	}
	cp, err := persist.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Time != 12.5 {
		t.Fatalf("time %v", cp.Time)
	}
	if cp.Config.Lattice().L0 != 7 || cp.Config.Lattice().L1 != 5 {
		t.Fatal("lattice dims lost")
	}
	if !cp.Config.Equal(cfg) {
		t.Fatal("configuration lost")
	}
	// The restored RNG continues the exact sequence.
	for i := 0; i < 100; i++ {
		if cp.RNG.Uint64() != src.Uint64() {
			t.Fatalf("rng sequence diverged at %d", i)
		}
	}
}

func TestWriteRoundTripsMetadata(t *testing.T) {
	lat := lattice.New(6, 4)
	cfg := lattice.NewConfig(lat)
	src := rng.New(3)
	cfg.Randomize([]float64{1, 1, 1}, src.Float64)
	in := &persist.Checkpoint{
		Engine:     "vssm",
		SpecHash:   "00ff00ff",
		NumSpecies: 3,
		Steps:      1234,
		Time:       9.75,
		Config:     cfg,
		RNG:        src,
		Payload:    []byte{1, 2, 3, 4, 5},
	}
	var buf bytes.Buffer
	if err := persist.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	cp, err := persist.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Engine != in.Engine || cp.SpecHash != in.SpecHash {
		t.Fatalf("metadata lost: %q %q", cp.Engine, cp.SpecHash)
	}
	if cp.NumSpecies != 3 || cp.Steps != 1234 || cp.Time != 9.75 {
		t.Fatalf("extents lost: %+v", cp)
	}
	if !bytes.Equal(cp.Payload, in.Payload) {
		t.Fatalf("payload lost: %v", cp.Payload)
	}
	if !cp.Config.Equal(cfg) {
		t.Fatal("configuration lost")
	}
}

// A checkpointed RSM run resumes to the exact same trajectory as an
// uninterrupted one.
func TestResumeExactTrajectory(t *testing.T) {
	m := model.NewZGB(model.DefaultZGBRates())
	lat := lattice.NewSquare(12)
	cm := model.MustCompile(m, lat)

	// Uninterrupted reference: 40 steps.
	refCfg := lattice.NewConfig(lat)
	ref := dmc.NewRSM(cm, refCfg, rng.New(9))
	for i := 0; i < 40; i++ {
		ref.Step()
	}

	// Interrupted: 25 steps, checkpoint, restore, 15 more.
	cfg := lattice.NewConfig(lat)
	src := rng.New(9)
	r1 := dmc.NewRSM(cm, cfg, src)
	for i := 0; i < 25; i++ {
		r1.Step()
	}
	var buf bytes.Buffer
	if err := persist.Write(&buf, &persist.Checkpoint{NumSpecies: 3, Time: r1.Time(), Config: cfg, RNG: src}); err != nil {
		t.Fatal(err)
	}
	cp, err := persist.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r2 := dmc.NewRSM(cm, cp.Config, cp.RNG)
	for i := 0; i < 15; i++ {
		r2.Step()
	}
	if !cp.Config.Equal(refCfg) {
		t.Fatal("resumed trajectory diverged from the uninterrupted run")
	}
}

// Fixed offsets into a checkpoint with an empty engine name and spec
// hash (so the variable-length blocks are zero bytes):
//
//	0  magic, 4 version, 8 engine len, 12 hash len, 16 species,
//	20 l0, 24 l1, 28 steps, 36 time, 44 rng, 76 cells.
const (
	offVersion = 4
	offSpecies = 16
	offL0      = 20
	offCells   = 76
)

func TestLoadRejectsCorruption(t *testing.T) {
	lat := lattice.New(4, 4)
	cfg := lattice.NewConfig(lat)
	src := rng.New(1)
	cfg.Randomize([]float64{1, 1}, src.Float64)
	var buf bytes.Buffer
	if err := persist.Write(&buf, &persist.Checkpoint{NumSpecies: 2, Time: 1, Config: cfg, RNG: src}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(off int, vals ...byte) []byte {
		bad := append([]byte(nil), good...)
		copy(bad[off:], vals)
		return bad
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XXXX"), good[4:]...)},
		{"truncated header", good[:10]},
		{"truncated cells", good[:offCells+5]},
		{"truncated payload length", good[:len(good)-2]},
		{"bad version", corrupt(offVersion, 99)},
		// Only the current layout loads; older files are refused.
		{"version 2", corrupt(offVersion, 2)},
		{"zero extent", corrupt(offL0, 0, 0, 0, 0)},
		{"zero species", corrupt(offSpecies, 0, 0, 0, 0)},
		{"implausible species", corrupt(offSpecies, 1, 1, 0, 0)},
		{"species out of range", corrupt(offCells, 0xee)},
		{"trailing garbage", append(append([]byte(nil), good...), 0xab)},
	}
	for _, c := range cases {
		if _, err := persist.Load(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	if _, err := persist.Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("uncorrupted checkpoint rejected: %v", err)
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, io.ErrClosedPipe
	}
	n := len(p)
	if n > f.after {
		n = f.after
	}
	f.after -= n
	if n < len(p) {
		return n, io.ErrClosedPipe
	}
	return n, nil
}

func TestSavePropagatesWriteErrors(t *testing.T) {
	lat := lattice.New(4, 4)
	cfg := lattice.NewConfig(lat)
	cp := &persist.Checkpoint{NumSpecies: 1, Time: 1, Config: cfg, RNG: rng.New(1)}
	for _, after := range []int{0, 3, 8, 30, 77} {
		if err := persist.Write(&failWriter{after: after}, cp); err == nil {
			t.Errorf("write failure after %d bytes not propagated", after)
		}
	}
}
