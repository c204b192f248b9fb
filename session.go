package parsurf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"parsurf/internal/core"
	"parsurf/internal/initpreset"
	"parsurf/internal/registry"
	"parsurf/internal/rng"
	"parsurf/internal/sim"
	"parsurf/internal/specfile"
)

// Engine is the uniform contract of every simulation engine: the
// dmc.Simulator methods (Step/Time/Config) plus identity and
// bookkeeping accessors (Name/TotalRate/Steps). Every engine of the
// paper's comparison is constructible by name through NewEngine or a
// Session; Engines lists the names.
type Engine = registry.Engine

// EngineSpec describes one registered engine (name, one-line doc,
// accepted options).
type EngineSpec = registry.Spec

// Engines returns the names of every registered engine, sorted.
func Engines() []string { return registry.Names() }

// EngineSpecs returns the full registry listing, sorted by name.
func EngineSpecs() []EngineSpec { return registry.Specs() }

// LookupEngine returns the spec registered under name.
func LookupEngine(name string) (EngineSpec, bool) { return registry.Lookup(name) }

// PartitionBuilders returns the names of the registered partition
// builders ("vonneumann5", "checkerboard", "modular", …) usable with
// PartitionNamed and in serialized specs.
func PartitionBuilders() []string { return registry.PartitionBuilderNames() }

// TypeSplitBuilders returns the names of the registered type-split
// builders ("bydirection") usable with TypeSplitNamed and in serialized
// specs.
func TypeSplitBuilders() []string { return registry.TypeSplitBuilderNames() }

// InitPresets returns the names of the registered initial-configuration
// presets ("empty", "fill", "random", "checkerboard").
func InitPresets() []string { return initpreset.Names() }

// ModelPresets returns the names of the model presets a serialized spec
// may reference ("zgb", "ptco", "diffusion", "ising").
func ModelPresets() []string { return specfile.ModelNames() }

// Option bits of EngineSpec.Accepts: consumers (e.g. CLIs) can forward
// a flag to every engine that understands it without per-engine
// dispatch.
const (
	OptL                 = registry.OptL
	OptStrategy          = registry.OptStrategy
	OptPartition         = registry.OptPartition
	OptTypeSplit         = registry.OptTypeSplit
	OptWorkers           = registry.OptWorkers
	OptY                 = registry.OptY
	OptBlocks            = registry.OptBlocks
	OptDeterministicTime = registry.OptDeterministicTime
)

// EngineOption sets one engine option in the plain-data options value
// a spec serializes as its "engine" section.
type EngineOption func(o *registry.Options)

// Trials sets the L-PNDCA trials per chunk selection (the paper's L).
func Trials(l int) EngineOption {
	return func(o *registry.Options) { o.L = l }
}

// Strategy sets the L-PNDCA chunk-selection strategy (AllInOrder,
// AllRandomOrder, RandomReplacement or RateWeighted).
func Strategy(s core.Strategy) EngineOption {
	return func(o *registry.Options) { o.Strategy = s.String() }
}

// StrategyName sets the L-PNDCA chunk-selection strategy by its CLI
// name: "order", "randomorder", "random" or "rates".
func StrategyName(name string) EngineOption {
	return func(o *registry.Options) { o.Strategy = name }
}

// Workers sets the sweep-goroutine count (pndca, typepart) or strip
// count (ddrsm). Partitioned sweeps are bit-identical for every worker
// count.
func Workers(n int) EngineOption {
	return func(o *registry.Options) { o.Workers = n }
}

// COFraction sets the ZGB CO impingement fraction y (ziff engine).
func COFraction(y float64) EngineOption {
	return func(o *registry.Options) { o.Y = &y }
}

// BlockSize sets the BCA block dimensions.
func BlockSize(w, h int) EngineOption {
	return func(o *registry.Options) { o.BlockW, o.BlockH = w, h }
}

// DeterministicClock replaces the exponential clock increments of the
// trial-based engines with their mean 1/(N·K).
func DeterministicClock() EngineOption {
	return func(o *registry.Options) { o.DeterministicTime = true }
}

// PartitionNamed selects the site partition for pndca/lpndca by the
// name of a registered builder — "vonneumann5", "checkerboard",
// "singlechunk", "singletons" or "modular[:K]" (PartitionBuilders lists
// them). The partition is built from the spec's model and lattice.
func PartitionNamed(name string) EngineOption {
	return func(o *registry.Options) { o.Partition = name }
}

// TypeSplitNamed selects the Ω×T reaction-type split for typepart by
// builder name ("bydirection"; TypeSplitBuilders lists them).
func TypeSplitNamed(name string) EngineOption {
	return func(o *registry.Options) { o.TypeSplit = name }
}

// NewEngine constructs the named engine over explicit pieces (a
// compiled model, a configuration and a random source), validating the
// options against what the engine accepts. Model-free engines (ziff)
// accept a nil cm. This is the low-level entry; NewSession owns the
// wiring for everyday use.
func NewEngine(name string, cm *Compiled, cfg *Config, src *RNG, opts ...EngineOption) (Engine, error) {
	var o registry.Options
	for _, opt := range opts {
		opt(&o)
	}
	return registry.New(name, cm, cfg, src, o)
}

// InitSpec names an initial-configuration preset with its parameters —
// plain data, the serializable replacement for init closures. The
// preset is applied once before the engine is built, drawing from a
// random stream split off the session seed, so initialisation never
// perturbs the engine's stream. InitPresets lists the names.
type InitSpec = specfile.InitRef

// EmptyInit returns the all-vacant initial condition (the default).
func EmptyInit() InitSpec { return InitSpec{Preset: "empty"} }

// FillInit returns the single-species initial condition.
func FillInit(species int) InitSpec {
	return InitSpec{Preset: "fill", Species: []int{species}}
}

// RandomInit returns the independent per-site draw with the given
// per-species weights (index = species value; need not be normalised).
func RandomInit(fractions ...float64) InitSpec {
	return InitSpec{Preset: "random", Fractions: fractions}
}

// CheckerboardInit returns the two-species parity initial condition.
func CheckerboardInit(a, b int) InitSpec {
	return InitSpec{Preset: "checkerboard", Species: []int{a, b}}
}

// SessionSpec is a replayable description of a simulation: model,
// lattice, engine (by name, with plain-data options), seed and a named
// initial-configuration preset. It holds one specfile document, and
// NewSpec and ParseSpec both validate and normalize it the same way, so
// a spec built either way marshals to the same canonical bytes, which
// MarshalJSON emits and Hash fingerprints. Instantiate with Session, or
// hand it to RunEnsemble to run many replicas.
type SessionSpec struct {
	// doc is the normalized document: lattice and seed filled in, a
	// WithModel model as inline text. data is its canonical JSON.
	doc  specfile.Spec
	data []byte

	// The rest is resolved once by finish and shared, read-only, by
	// every session and ensemble replica built from the spec: the
	// compiled model arena is immutable after Compile, so a
	// 1000-replica sweep compiles the translation tables and dependency
	// CSR exactly once instead of once per replica; the partition and
	// type split are built once; and the built init preset (stateless:
	// it reads only its captured parameters and writes only the config
	// it is handed) is applied without re-validating or re-building per
	// replica.
	model   *Model
	lat     *Lattice
	cm      *Compiled
	part    *Partition
	split   *TypeSplit
	initFn  initpreset.Func
	factory registry.Factory
	epoch   uint32 // the engine's registry.Spec.Epoch, folded into Hash
}

// SessionOption edits the spec document NewSpec validates.
type SessionOption func(*specfile.Spec) error

// WithModel sets the reaction model. Required for every engine except
// the model-free ones (ziff). The model is stored as an inline
// definition in the modelfile text format; WithModelPreset keeps the
// compact named form.
func WithModel(m *Model) SessionOption {
	var ref *specfile.ModelRef
	var err error
	if m != nil {
		ref = new(specfile.ModelRef)
		ref.Text, err = specfile.ModelText(m)
	}
	return func(d *specfile.Spec) error {
		if err != nil {
			return fmt.Errorf("parsurf: serializing model: %w", err)
		}
		d.Model = ref
		return nil
	}
}

// WithModelPreset sets the reaction model by preset name ("zgb",
// "ptco", "diffusion", "ising") with optional parameter overrides —
// the declarative counterpart of WithModel. ModelPresets lists the
// names; unknown parameters are rejected with the accepted set.
func WithModelPreset(name string, params map[string]float64) SessionOption {
	ref := &specfile.ModelRef{Name: name}
	if len(params) > 0 {
		ref.Params = maps.Clone(params)
	}
	return func(d *specfile.Spec) error {
		d.Model = ref
		return nil
	}
}

// WithLattice sets the periodic lattice extents (default 100×100).
func WithLattice(l0, l1 int) SessionOption {
	return func(d *specfile.Spec) error {
		d.Lattice = &specfile.Extents{L0: l0, L1: l1}
		return nil
	}
}

// WithEngine selects the engine by registry name with its options.
func WithEngine(name string, opts ...EngineOption) SessionOption {
	return func(d *specfile.Spec) error {
		d.Engine = specfile.EngineRef{Name: name}
		for _, opt := range opts {
			opt(&d.Engine.Options)
		}
		return nil
	}
}

// WithSeed sets the deterministic base seed (default 1). The engine
// draws from NewRNG(seed), so a Session reproduces NewEngine over
// NewRNG(seed) bit for bit.
func WithSeed(seed uint64) SessionOption {
	return func(d *specfile.Spec) error {
		d.Seed = &seed
		return nil
	}
}

// WithInit selects the named initial-configuration preset, e.g.
//
//	parsurf.WithInit(parsurf.RandomInit(0.5, 0.5))
//
// The preset draws from a random stream split off the session seed (so
// ensemble replicas, which run on split streams of their own, get
// distinct initial surfaces), and being plain data it survives the
// spec's JSON round-trip.
func WithInit(init InitSpec) SessionOption {
	init.Fractions = slices.Clone(init.Fractions)
	init.Species = slices.Clone(init.Species)
	return func(d *specfile.Spec) error {
		d.Init = &init
		return nil
	}
}

// initStreamID derives the init-preset stream from the session seed;
// any fixed id distinct from the ensemble replica ids works.
const initStreamID = 0x696e6974 // "init"

// NewSpec validates and returns a replayable session spec. It accepts
// exactly the specs ParseSpec accepts: the options edit a specfile
// document, and both entry points finish it the same way.
func NewSpec(opts ...SessionOption) (*SessionSpec, error) {
	sp := new(SessionSpec)
	for _, opt := range opts {
		if err := opt(&sp.doc); err != nil {
			return nil, err
		}
	}
	if err := sp.finish(); err != nil {
		return nil, err
	}
	return sp, nil
}

// ParseSpec decodes a serialized spec — the programmatic form of
// `surfsim -spec file.json`.
func ParseSpec(data []byte) (*SessionSpec, error) {
	sp := new(SessionSpec)
	if err := sp.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return sp, nil
}

// UnmarshalJSON decodes and validates a specfile JSON document (see
// internal/specfile for the schema). Unknown fields and unknown names
// are rejected with registry-aware messages.
func (sp *SessionSpec) UnmarshalJSON(data []byte) error {
	f, err := specfile.ParseBytes(data)
	if err != nil {
		return err
	}
	ns := &SessionSpec{doc: *f}
	if err := ns.finish(); err != nil {
		return err
	}
	*sp = *ns
	return nil
}

// MarshalJSON returns the spec's canonical JSON document; the exact
// inverse of UnmarshalJSON (decode → encode is byte-stable, and the
// decoded spec reproduces the original's trajectories bit for bit).
func (sp *SessionSpec) MarshalJSON() ([]byte, error) {
	return bytes.Clone(sp.data), nil
}

// finish is the shared tail of NewSpec and UnmarshalJSON: it normalizes
// and validates the document, marshals it once, and resolves everything
// a session build needs.
func (sp *SessionSpec) finish() error {
	d := &sp.doc
	if d.Engine.Name == "" {
		return fmt.Errorf("parsurf: session needs an engine (WithEngine); registered: %v", Engines())
	}
	if d.Lattice == nil {
		d.Lattice = &specfile.Extents{L0: 100, L1: 100}
	}
	if d.Seed == nil {
		seed := uint64(1)
		d.Seed = &seed
	}
	if err := d.Validate(); err != nil {
		return err
	}
	data, err := json.Marshal(d)
	if err != nil {
		return fmt.Errorf("parsurf: spec does not serialize: %w", err)
	}
	sp.data = data
	if d.Model != nil {
		if sp.model, err = d.Model.Build(); err != nil {
			return err
		}
	}
	sp.lat = NewLattice(d.Lattice.L0, d.Lattice.L1)
	if d.Init != nil {
		if sp.initFn, err = initpreset.Build(d.Init.Preset, d.Init.Params()); err != nil {
			return fmt.Errorf("parsurf: %w", err)
		}
	}
	// Compile once, here: the arena (translation tables, dependency
	// CSR, cumulative rates) is immutable after Compile, so every
	// session and replica reads the same tables. This also surfaces
	// compile errors (e.g. a pattern self-colliding on a too-small
	// lattice) at NewSpec instead of first build.
	if sp.model != nil {
		if sp.cm, err = Compile(sp.model, sp.lat); err != nil {
			return err
		}
	}
	if sp.part, sp.split, err = registry.Resolve(d.Engine.Options, sp.model, sp.lat); err != nil {
		return err
	}
	eng, _ := registry.Lookup(d.Engine.Name) // Validate found it
	sp.factory, sp.epoch = eng.New, eng.Epoch
	return nil
}

// Session returns a ready-to-run session built from the spec.
func (sp *SessionSpec) Session() (*Session, error) {
	return sp.build(rng.New(sp.Seed()))
}

// EngineName returns the spec's engine registry name.
func (sp *SessionSpec) EngineName() string { return sp.doc.Engine.Name }

// Seed returns the spec's base seed.
func (sp *SessionSpec) Seed() uint64 { return *sp.doc.Seed }

// Extents returns the spec's lattice extents.
func (sp *SessionSpec) Extents() (l0, l1 int) { return sp.doc.Lattice.L0, sp.doc.Lattice.L1 }

// NumSpecies returns the number of species of the spec's model, or the
// three ZGB species for the model-free ziff engine — known without
// building a session, which is what lets the ensemble runner size its
// streaming accumulators up front.
func (sp *SessionSpec) NumSpecies() int {
	if sp.model != nil {
		return sp.model.NumSpecies()
	}
	return 3 // ziff: vacant, CO, O
}

// SpeciesNames returns the species labels of the spec's model (the ZGB
// labels for the model-free ziff engine).
func (sp *SessionSpec) SpeciesNames() []string {
	if sp.model != nil {
		return sp.model.Species
	}
	return zgbSpeciesNames
}

// build wires configuration → init preset → engine around the given
// engine stream. The lattice, compiled model arena and partition come
// from the spec (resolved once in finish) and are shared, read-only, by
// every session built from it.
func (sp *SessionSpec) build(src *RNG) (*Session, error) {
	cfg := NewConfig(sp.lat)
	if sp.initFn != nil {
		sp.initFn(cfg, src.Split(initStreamID))
	}
	eng, err := sp.factory(sp.cm, cfg, src, sp.doc.Engine.Options, sp.part, sp.split)
	if err != nil {
		return nil, err
	}
	return &Session{spec: sp, lat: sp.lat, cm: sp.cm, cfg: cfg, eng: eng, src: src}, nil
}

// Session is one wired simulation: a lattice, a compiled model (when
// the engine needs one), a configuration and an engine, ready to Run.
type Session struct {
	spec *SessionSpec
	lat  *Lattice
	cm   *Compiled
	cfg  *Config
	eng  Engine
	// src is the engine's random source; Checkpoint saves its raw state
	// and ResumeSession restores it in place (the engine holds the same
	// pointer).
	src *RNG
	// initSrc is stable storage for the init-preset stream derived on
	// every Reset, so rewinding a pooled session allocates nothing.
	initSrc RNG
}

// Reset rewinds the session for replica reuse instead of rebuilding
// it: the configuration is cleared and re-initialised from the spec's
// init preset (drawing from src's split init stream, exactly as a
// fresh build does) and the engine is Reset over it, rewinding its
// clock, counters and incremental state while keeping every allocated
// buffer. After Reset the session's trajectory is bit-identical to
// spec.Session() built around the same stream — the ensemble runner
// uses this to run successive replica indices through one pooled
// session per worker. The session's lattice and compiled arena are
// untouched (they are immutable and shared with the spec).
func (s *Session) Reset(src *RNG) {
	s.src = src
	s.cfg.Fill(0)
	if s.spec.initFn != nil {
		src.SplitInto(&s.initSrc, initStreamID)
		s.spec.initFn(s.cfg, &s.initSrc)
	}
	s.eng.Reset(s.cfg, src)
}

// NewSession builds a session in one call:
//
//	sess, err := parsurf.NewSession(
//		parsurf.WithModelPreset("zgb", nil),
//		parsurf.WithLattice(256, 256),
//		parsurf.WithEngine("lpndca", parsurf.Trials(100), parsurf.Strategy(parsurf.RateWeighted)),
//		parsurf.WithSeed(42),
//	)
func NewSession(opts ...SessionOption) (*Session, error) {
	sp, err := NewSpec(opts...)
	if err != nil {
		return nil, err
	}
	return sp.Session()
}

// Engine returns the session's engine. Type-assert to the concrete
// engine type (*RSM, *LPNDCA, …) for engine-specific counters.
func (s *Session) Engine() Engine { return s.eng }

// Config returns the live configuration.
func (s *Session) Config() *Config { return s.cfg }

// Lattice returns the session lattice.
func (s *Session) Lattice() *Lattice { return s.lat }

// Model returns the session model (nil for model-free engines).
func (s *Session) Model() *Model { return s.spec.model }

// Compiled returns the compiled model (nil for model-free engines).
func (s *Session) Compiled() *Compiled { return s.cm }

// NumSpecies returns the number of species of the session's model, or
// the three ZGB species for the model-free ziff engine.
func (s *Session) NumSpecies() int { return s.spec.NumSpecies() }

// runSpec collects Run options.
type runSpec struct {
	tEnd     float64
	hasEnd   bool
	steps    int
	hasSteps bool
	dt       float64
	sampled  bool
	obs      []sim.Observer
}

// RunOption configures one Session.Run call.
type RunOption func(*runSpec)

// Until runs the engine until its clock reaches t.
func Until(t float64) RunOption {
	return func(r *runSpec) {
		r.tEnd = t
		r.hasEnd = true
	}
}

// ForSteps runs the engine for n Step calls instead of a time horizon.
func ForSteps(n int) RunOption {
	return func(r *runSpec) {
		r.steps = n
		r.hasSteps = true
	}
}

// SampleEvery observes the live configuration every dt of simulated
// time (only meaningful with Until). The sample schedule is an
// index-derived TimeGrid (the same grid arithmetic the ensemble merge
// uses), so the k-th sample targets exactly k·dt — never an
// accumulated, drifting sum — and a final sample is taken at the end
// time exactly when it is not on the dt grid. Run rejects a dt that is
// not positive.
func SampleEvery(dt float64, obs ...Observer) RunOption {
	return func(r *runSpec) {
		r.dt = dt
		r.sampled = true
		r.obs = append(r.obs, obs...)
	}
}

// RunStats summarises one Run call.
type RunStats struct {
	// Steps is the number of engine Step calls made.
	Steps int
	// Samples is the number of observation points.
	Samples int
	// Time is the engine clock after the run.
	Time float64
}

// Run advances the session per the options, fanning samples out to the
// observers, honouring context cancellation between engine steps. An
// absorbing state ends the run early without error; a cancelled context
// returns ctx's error alongside the progress made.
func (s *Session) Run(ctx context.Context, opts ...RunOption) (RunStats, error) {
	var r runSpec
	for _, opt := range opts {
		opt(&r)
	}
	if r.hasEnd && r.hasSteps {
		return RunStats{}, fmt.Errorf("parsurf: Run with both Until and ForSteps")
	}
	if !r.hasEnd && !r.hasSteps {
		return RunStats{}, fmt.Errorf("parsurf: Run needs Until or ForSteps")
	}
	if r.hasSteps {
		if len(r.obs) > 0 {
			return RunStats{}, fmt.Errorf("parsurf: SampleEvery requires Until, not ForSteps")
		}
		steps, err := sim.StepContext(ctx, s.eng, r.steps)
		return RunStats{Steps: steps, Time: s.eng.Time()}, err
	}
	if r.sampled && !(r.dt > 0) {
		return RunStats{}, fmt.Errorf("parsurf: SampleEvery interval %v must be > 0", r.dt)
	}
	steps, samples, err := sim.RunContext(ctx, s.eng, r.dt, r.tEnd, r.obs...)
	return RunStats{Steps: steps, Samples: samples, Time: s.eng.Time()}, err
}

// zgbSpeciesNames are the species labels of the model-free ziff engine.
var zgbSpeciesNames = []string{"*", "CO", "O"}

// SpeciesNames returns the species labels of the session's model (the
// ZGB labels for the model-free ziff engine).
func (s *Session) SpeciesNames() []string { return s.spec.SpeciesNames() }
