package dmc

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"parsurf/internal/rng"
)

// runFRM returns an FRM advanced 2,000 events on a 16² ZGB lattice.
func runFRM(t testing.TB) *FRM {
	t.Helper()
	cm, cfg, src := zgbSetup(t, 16, 5)
	f := NewFRM(cm, cfg, src)
	for i := 0; i < 2000; i++ {
		f.Step()
	}
	return f
}

// saveFRM returns f's SaveState payload.
func saveFRM(t testing.TB, f *FRM) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadFRM loads payload into a fresh FRM over a copy of f's
// configuration, the state ResumeSession hands LoadState.
func loadFRM(f *FRM, payload []byte) error {
	g := NewFRM(f.cm, f.cfg.Clone(), rng.New(1))
	return g.LoadState(bytes.NewReader(payload))
}

// frmEvent is the byte offset of event i in an FRM payload: clock,
// event count and queue length precede 16-byte (time, key) entries.
func frmEvent(i int) int { return 8 + 8 + 4 + 16*i }

// A payload whose heap array has a child earlier than its parent must
// not load: the resumed run would pop events out of time order.
func TestFRMLoadStateRejectsBrokenHeap(t *testing.T) {
	f := runFRM(t)
	payload := saveFRM(t, f)
	if err := loadFRM(f, payload); err != nil {
		t.Fatalf("own payload rejected: %v", err)
	}
	root, child := payload[frmEvent(0):frmEvent(1)], payload[frmEvent(1):frmEvent(2)]
	tmp := append([]byte(nil), root...)
	copy(root, child)
	copy(child, tmp)
	if err := loadFRM(f, payload); err == nil {
		t.Fatal("payload with the root and its child swapped loaded without error")
	}
}

// A payload whose clock is not a finite non-negative number, or with
// an event that is not finite or is earlier than the clock, must not
// load: the resumed run would step its clock backwards or to NaN or
// +Inf. Each corruption keeps the (time, key) order, so only the clock
// checks can catch it.
func TestFRMLoadStateRejectsBadTimes(t *testing.T) {
	f := runFRM(t)
	payload := saveFRM(t, f)
	root, last := frmEvent(0), frmEvent(f.queue.Len()-1)
	for _, tc := range []struct {
		name string
		at   int
		time float64
	}{
		{"clock NaN", 0, math.NaN()},
		{"clock +Inf", 0, math.Inf(1)},
		{"clock negative", 0, -1},
		{"root at half the clock", root, f.time / 2},
		{"root negative", root, -1},
		{"last event +Inf", last, math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), payload...)
			binary.LittleEndian.PutUint64(bad[tc.at:], math.Float64bits(tc.time))
			if err := loadFRM(f, bad); err == nil {
				t.Fatalf("payload with time %v at byte %d loaded without error", tc.time, tc.at)
			}
		})
	}
}

// A payload scheduling an instance that is disabled in the
// configuration must not load: Step would execute it.
func TestFRMLoadStateRejectsStrayKey(t *testing.T) {
	f := runFRM(t)
	payload := saveFRM(t, f)
	// Re-key the last event (the latest, so the order stays valid) to a
	// disabled instance of the same type.
	last := frmEvent(f.queue.Len() - 1)
	rt, _ := f.unkey(int64(binary.LittleEndian.Uint64(payload[last+8:])))
	stray := -1
	for s := 0; s < f.n; s++ {
		if !f.cm.Enabled(f.cells, rt, s) {
			stray = s
			break
		}
	}
	if stray < 0 {
		t.Fatalf("reaction %d is enabled everywhere", rt)
	}
	binary.LittleEndian.PutUint64(payload[last+8:], uint64(f.key(rt, stray)))
	if err := loadFRM(f, payload); err == nil {
		t.Fatal("payload scheduling a disabled instance loaded without error")
	}
}

// runVSSM returns a VSSM advanced 2,000 events on a 16² ZGB lattice
// with its SaveState payload.
func runVSSM(t testing.TB) (*VSSM, []byte) {
	t.Helper()
	cm, cfg, src := zgbSetup(t, 16, 5)
	v := NewVSSM(cm, cfg, src)
	for i := 0; i < 2000; i++ {
		v.Step()
	}
	var buf bytes.Buffer
	if err := v.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return v, buf.Bytes()
}

// loadVSSM loads payload into a fresh VSSM over a copy of v's
// configuration, the state ResumeSession hands LoadState.
func loadVSSM(v *VSSM, payload []byte) (*VSSM, error) {
	w := NewVSSM(v.cm, v.cfg.Clone(), rng.New(1))
	return w, w.LoadState(bytes.NewReader(payload))
}

// A payload whose enabled list names a site where the reaction is not
// enabled must not load: Step would execute the disabled reaction and
// corrupt the lattice.
func TestVSSMLoadStateRejectsStraySite(t *testing.T) {
	v, good := runVSSM(t)
	cm := v.cm
	if _, err := loadVSSM(v, good); err != nil {
		t.Fatalf("own payload rejected: %v", err)
	}
	rt := -1
	for r := range v.enabled {
		if len(v.enabled[r]) > 0 && len(v.enabled[r]) < cm.Lat.N() {
			rt = r
			break
		}
	}
	if rt < 0 {
		t.Fatal("no reaction type is enabled on part of the lattice")
	}
	stray := -1
	for s := 0; s < cm.Lat.N(); s++ {
		if v.pos[rt][s] == 0 {
			stray = s
			break
		}
	}
	saved := v.enabled[rt][0]
	v.enabled[rt][0] = int32(stray)
	var bad bytes.Buffer
	if err := v.SaveState(&bad); err != nil {
		t.Fatal(err)
	}
	v.enabled[rt][0] = saved
	if _, err := loadVSSM(v, bad.Bytes()); err == nil {
		t.Fatalf("payload listing disabled site %d for reaction %d loaded without error", stray, rt)
	}
}

// A payload whose last Fenwick node (the weight of the last reaction
// type alone) is NaN or far from k·|enabled| must not load: with NaN
// every later clock is NaN, and a wrong finite weight skews the draws.
func TestVSSMLoadStateRejectsCorruptTreeNode(t *testing.T) {
	v, payload := runVSSM(t)
	if _, err := loadVSSM(v, payload); err != nil {
		t.Fatalf("own payload rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		node float64
	}{{"NaN", math.NaN()}, {"1e6", 1e6}} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), payload...)
			binary.LittleEndian.PutUint64(bad[len(bad)-8:], math.Float64bits(tc.node))
			if _, err := loadVSSM(v, bad); err == nil {
				t.Fatalf("payload with last tree node %v loaded without error", tc.node)
			}
		})
	}
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A payload claiming 2³²-1 queued events or tree nodes must fail
// without allocating for the claim: the count is untrusted input.
func TestLoadStateInflatedCountsAllocateNothing(t *testing.T) {
	f := runFRM(t)
	frmPayload := saveFRM(t, f)
	binary.LittleEndian.PutUint32(frmPayload[16:], math.MaxUint32)
	v, vssmPayload := runVSSM(t)
	// The node count precedes the Fenwick nodes at the payload's end.
	binary.LittleEndian.PutUint32(vssmPayload[len(vssmPayload)-8*(v.typeRates.Len()+1)-4:], math.MaxUint32)
	for name, load := range map[string]func() error{
		"frm queue length":     func() error { return loadFRM(f, frmPayload) },
		"vssm tree node count": func() error { _, err := loadVSSM(v, vssmPayload); return err },
	} {
		var err error
		if n := allocatedBy(func() { err = load() }); n > 1<<20 {
			t.Errorf("%s: loading allocated %d bytes", name, n)
		}
		if err == nil {
			t.Errorf("%s: inflated payload loaded without error", name)
		}
	}
}
