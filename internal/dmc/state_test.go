package dmc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"parsurf/internal/rng"
)

// runFRM returns an FRM advanced 2,000 events on a 16² ZGB lattice.
func runFRM(t *testing.T) *FRM {
	t.Helper()
	cm, cfg, src := zgbSetup(t, 16, 5)
	f := NewFRM(cm, cfg, src)
	for i := 0; i < 2000; i++ {
		f.Step()
	}
	return f
}

// saveFRM returns f's SaveState payload.
func saveFRM(t *testing.T, f *FRM) []byte {
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

// frmEvent is the byte offset of heap entry i in an FRM payload: clock,
// event count and heap length precede 16-byte (time, key) entries.
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

// A payload whose per-type counts disagree with its heap must not
// load: TotalRate would report a wrong propensity from then on.
func TestFRMLoadStateRejectsWrongCount(t *testing.T) {
	f := runFRM(t)
	f.scheduled[0]++
	payload := saveFRM(t, f)
	f.scheduled[0]--
	if err := loadFRM(f, payload); err == nil {
		t.Fatal("payload with a scheduled count off by one loaded without error")
	}
}

// A payload scheduling an instance that is disabled in the
// configuration must not load: Step would execute it.
func TestFRMLoadStateRejectsStrayKey(t *testing.T) {
	f := runFRM(t)
	payload := saveFRM(t, f)
	// Re-key the last heap entry (a leaf, so the heap stays valid) to
	// a disabled instance of the same type, so the counts still tally.
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

// A payload whose enabled list names a site where the reaction is not
// enabled must not load: Step would execute the disabled reaction and
// corrupt the lattice.
func TestVSSMLoadStateRejectsStraySite(t *testing.T) {
	cm, cfg, src := zgbSetup(t, 16, 5)
	v := NewVSSM(cm, cfg, src)
	for i := 0; i < 2000; i++ {
		v.Step()
	}
	load := func(payload []byte) error {
		w := NewVSSM(cm, cfg.Clone(), rng.New(1))
		return w.LoadState(bytes.NewReader(payload))
	}
	var good bytes.Buffer
	if err := v.SaveState(&good); err != nil {
		t.Fatal(err)
	}
	if err := load(good.Bytes()); err != nil {
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
	if err := load(bad.Bytes()); err == nil {
		t.Fatalf("payload listing disabled site %d for reaction %d loaded without error", stray, rt)
	}
}
