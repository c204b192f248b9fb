// Package goldentrace defines the canonical fixed-seed fingerprint runs
// shared by the trajectory pins of the root package
// (TestGoldenTracesBitIdentical, TestModelTracesBitIdentical) and
// cmd/goldengen, so the tests and the generator can never disagree
// about the trajectory being hashed: same seeds, same lattices, same
// per-engine step counts, same hashes.
//
// Every fingerprint has two halves: one over the configurations, one
// over the clock. A change that alters only how waiting times are
// drawn moves the clock half and leaves the configuration half alone
// for every engine whose moves never depend on the clock; a re-pin
// diff shows which half moved.
package goldentrace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/registry"
	"parsurf/internal/rng"
)

// The canonical run parameters. Changing any of these invalidates every
// recorded golden hash; regenerate them with cmd/goldengen in the same
// change.
const (
	// Seed is the RNG seed of the fingerprint run.
	Seed = 12345
	// Side is the square-lattice side length.
	Side = 20
	// DefaultSteps is the step count for trial-based engines (one MC
	// step of N trials per Step call).
	DefaultSteps = 60
	// EventSteps is the step count for event-based engines (VSSM, FRM
	// advance one executed reaction per Step call).
	EventSteps = 4000
)

// StepsFor returns the canonical step count for an engine name.
func StepsFor(name string) int {
	if name == "vssm" || name == "frm" {
		return EventSteps
	}
	return DefaultSteps
}

// Trace is the two-part fingerprint of a run: Config hashes the
// configuration after every step, Clock the clock's float64 bits after
// every step.
type Trace struct {
	Config, Clock uint64
}

// String formats the trace as the Go literal the golden tables use.
func (t Trace) String() string {
	return fmt.Sprintf("{Config: 0x%016x, Clock: 0x%016x}", t.Config, t.Clock)
}

// Fingerprint runs the engine for the given number of steps (fewer if
// it reaches an absorbing state) and returns the FNV-64a hashes of the
// full configuration and of the clock bits after every step.
func Fingerprint(eng registry.Engine, steps int) Trace {
	hc, ht := fnv.New64a(), fnv.New64a()
	cells := eng.Config().Cells()
	buf := make([]byte, len(cells))
	var tb [8]byte
	for i := 0; i < steps; i++ {
		if !eng.Step() {
			break
		}
		for j, sp := range cells {
			buf[j] = byte(sp)
		}
		hc.Write(buf)
		binary.LittleEndian.PutUint64(tb[:], math.Float64bits(eng.Time()))
		ht.Write(tb[:])
	}
	return Trace{Config: hc.Sum64(), Clock: ht.Sum64()}
}

// ModelCase is one run of the model-trace table: an engine that
// refreshes enabledness incrementally after each event (vssm, frm, and
// lpndca's rate-weighted chunk tracker) on one built-in model, started
// from a seeded random configuration.
type ModelCase struct {
	// Model and Engine name the case; Key is "model/engine".
	Model, Engine string

	mi      int // model index: seeds the start configuration and the engine
	build   func() *model.Model
	weights []float64
	steps   int
	opts    registry.Options
}

// Key returns the case's table key.
func (c ModelCase) Key() string { return c.Model + "/" + c.Engine }

// ModelSide is the lattice side of every model-trace run.
const ModelSide = 24

// ModelCases lists the model-trace runs in table order. The ZGB golden
// traces cover one model; these cover the patterns that exercise the
// other dependency shapes: five-site Ising patterns whose unchanged
// triples still gate enabledness, PtCO's six species and phase fronts,
// hops that vacate one site and fill another.
func ModelCases() []ModelCase {
	models := []struct {
		name    string
		build   func() *model.Model
		weights []float64
	}{
		{"zgb", func() *model.Model { return model.NewZGB(model.DefaultZGBRates()) }, []float64{0.5, 0.2, 0.3}},
		{"ptco", func() *model.Model { return model.NewPtCO(model.DefaultPtCORates()) }, []float64{3, 1, 1, 2, 1, 1}},
		{"ising", func() *model.Model { return model.NewIsing(0.4) }, []float64{1, 1}},
		{"diffusion", func() *model.Model { return model.NewDimerDiffusion(1) }, []float64{0.6, 0.4}},
		{"singlefile", func() *model.Model { return model.NewSingleFile(1) }, []float64{0.5, 0.5}},
		{"ab", func() *model.Model { return model.NewAB(1, 1, 5) }, []float64{0.4, 0.3, 0.3}},
	}
	engines := []struct {
		name  string
		steps int
		opts  registry.Options
	}{
		{"vssm", 60000, registry.Options{}},
		{"frm", 60000, registry.Options{}},
		{"lpndca", 50, registry.Options{Strategy: "rates"}},
	}
	var cases []ModelCase
	for mi, m := range models {
		for _, e := range engines {
			cases = append(cases, ModelCase{
				Model: m.name, Engine: e.name,
				mi: mi, build: m.build, weights: m.weights, steps: e.steps, opts: e.opts,
			})
		}
	}
	return cases
}

// Run builds the case's engine at ModelSide², fingerprints it, and
// folds the final SaveState payload in too, so a change to the
// enabled-list order, the heap layout or the Fenwick residue shows even
// when the lattice happens to agree. Every one of these payloads opens
// with the engine clock (one float64): those 8 bytes go into the clock
// half, the rest into the configuration half. The engine is returned
// for its step count.
func (c ModelCase) Run() (Trace, registry.Engine, error) {
	lat := lattice.NewSquare(ModelSide)
	cm, err := model.Compile(c.build(), lat)
	if err != nil {
		return Trace{}, nil, err
	}
	cfg := lattice.NewConfig(lat)
	cfg.Randomize(c.weights, rng.New(uint64(100+c.mi)).Float64)
	eng, err := registry.New(c.Engine, cm, cfg, rng.New(uint64(7+c.mi)), c.opts)
	if err != nil {
		return Trace{}, nil, err
	}
	tr := Fingerprint(eng, c.steps)
	var state bytes.Buffer
	if err := eng.SaveState(&state); err != nil {
		return Trace{}, nil, err
	}
	payload := state.Bytes()
	if len(payload) < 8 {
		return Trace{}, nil, fmt.Errorf("goldentrace: %s payload of %d bytes has no clock", c.Key(), len(payload))
	}
	return Trace{
		Config: fold(tr.Config, payload[8:]),
		Clock:  fold(tr.Clock, payload[:8]),
	}, eng, nil
}

// EpochRow is one row of an engine's epoch history: a trajectory epoch
// (registry.Spec.Epoch) and the Digest of the engine's pins at it.
type EpochRow struct {
	Epoch  uint32
	Digest uint64
}

// String formats the row as the Go literal the history table uses.
func (r EpochRow) String() string {
	return fmt.Sprintf("{Epoch: %d, Digest: 0x%016x}", r.Epoch, r.Digest)
}

// Digest hashes every trajectory pin of one engine: its golden trace
// and its entries of the model-trace table (keyed by ModelCase.Key, in
// ModelCases order). A re-pin of any of them moves the digest.
func Digest(engine string, golden Trace, model map[string]Trace) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %v\n", engine, golden)
	for _, c := range ModelCases() {
		if c.Engine == engine {
			fmt.Fprintf(h, "%s %v\n", c.Key(), model[c.Key()])
		}
	}
	return h.Sum64()
}

// fold hashes a trace half followed by extra bytes.
func fold(half uint64, extra []byte) uint64 {
	h := fnv.New64a()
	h.Write(binary.LittleEndian.AppendUint64(nil, half))
	h.Write(extra)
	return h.Sum64()
}
