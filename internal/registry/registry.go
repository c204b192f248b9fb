// Package registry is the central name → engine table of the
// repository: every simulation engine package (internal/dmc,
// internal/ca, internal/core, internal/parallel, internal/ziff)
// registers a named factory here from its init function, and the public
// façade resolves engines by string name with per-engine option
// validation.
//
// The registry is what makes the paper's engine comparison a first-class
// operation: `New("rsm", …)` and `New("lpndca", …)` build interchangeable
// Engine values, so commands, examples and the Session/ensemble layers
// need no per-engine dispatch switches.
//
// Import cycle note: engine packages import registry (to register), so
// registry must not import any engine package. The Engine interface
// therefore restates the dmc.Simulator contract (Step/Time/Config)
// rather than embedding it; every dmc.Simulator implementation that adds
// Name/TotalRate/Steps satisfies both interfaces.
package registry

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/partition"
	"parsurf/internal/rng"
)

// Engine is the uniform contract of every registered engine. It is a
// superset of dmc.Simulator: the three simulation methods plus identity
// and bookkeeping accessors the comparison layers need.
type Engine interface {
	// Step advances the simulation by one algorithm-specific unit (one
	// MC step of N trials for trial-based engines, one reaction event
	// for event-based engines). It reports false when the system cannot
	// evolve further (absorbing state).
	Step() bool
	// Time returns the current simulated time.
	Time() float64
	// Config returns the live configuration.
	Config() *lattice.Config
	// Name returns the engine's registry name (e.g. "rsm", "lpndca").
	Name() string
	// TotalRate returns the engine's aggregate transition rate: the
	// state-dependent enabled propensity for bookkeeping engines (VSSM,
	// FRM) and the constant trial rate N·K for trial-based engines.
	TotalRate() float64
	// Steps returns the number of completed Step calls.
	Steps() uint64
	// Reset rewinds the engine to time zero over a fresh configuration:
	// the clock and every counter return to their construction values,
	// all incremental state (enabled sets, event queues, rate trees,
	// vacancy bitsets, sweep stream counters) is re-derived from cfg,
	// and all randomness is redirected to src — while every buffer the
	// constructor allocated (fenwick trees, event-queue slots, CSR
	// scratch, bitsets, partition sweep slots) is reused in place. The
	// configured options (partition, workers, block geometry, rates,
	// deterministic clock, …) are preserved. After Reset the engine's
	// trajectory is bit-identical to a freshly constructed engine over
	// the same (cfg, src) — the contract the ensemble replica pool
	// relies on. It panics when cfg's lattice shape differs from the
	// engine's.
	Reset(cfg *lattice.Config, src *rng.Source)
	// SaveState writes the engine-private evolution state that is
	// neither the configuration nor the raw random source: clocks,
	// counters, enabled-set orderings, event-queue layouts, drifted
	// rate trees — everything Reset re-derives differently than N
	// steps of history would have left it. The encoding is opaque to
	// callers and versioned only through the engine's Spec.Epoch,
	// which the checkpoint's spec hash carries.
	SaveState(w io.Writer) error
	// LoadState restores state written by SaveState by the same
	// engine kind over the same model/lattice/options. It is called
	// after Reset(cfg, src) has installed the checkpointed
	// configuration and random source, and overwrites the
	// history-dependent remainder so the next Step continues the
	// interrupted trajectory bit-exactly.
	LoadState(r io.Reader) error
}

// OptionSet is a bitmask naming the Options fields an engine accepts;
// New rejects options outside the engine's declared set.
type OptionSet uint32

const (
	// OptL is the trials-per-chunk-selection parameter of L-PNDCA.
	OptL OptionSet = 1 << iota
	// OptStrategy is the L-PNDCA chunk-selection strategy.
	OptStrategy
	// OptPartition is a site partition (PNDCA, L-PNDCA).
	OptPartition
	// OptTypeSplit is the Ω×T reaction-type split (typepart).
	OptTypeSplit
	// OptWorkers is the sweep-goroutine / strip count.
	OptWorkers
	// OptY is the ZGB CO impingement fraction.
	OptY
	// OptBlocks is the BCA block geometry.
	OptBlocks
	// OptDeterministicTime replaces exponential clock increments with
	// their mean.
	OptDeterministicTime
)

var optionNames = []struct {
	bit  OptionSet
	name string
}{
	{OptL, "L"},
	{OptStrategy, "strategy"},
	{OptPartition, "partition"},
	{OptTypeSplit, "typesplit"},
	{OptWorkers, "workers"},
	{OptY, "y"},
	{OptBlocks, "blocks"},
	{OptDeterministicTime, "deterministic-time"},
}

func (s OptionSet) String() string {
	var names []string
	for _, o := range optionNames {
		if s&o.bit != 0 {
			names = append(names, o.name)
		}
	}
	return strings.Join(names, ", ")
}

// Options carries every per-engine construction parameter as plain
// data; its JSON form is the "engine" section of a serialized spec
// (internal/specfile). The zero value means "engine defaults"; each
// factory consumes the fields its engine understands, and CheckOptions
// rejects fields set for an engine that does not accept them and values
// no engine could run.
type Options struct {
	// L is the L-PNDCA trials per chunk selection (0 = engine default).
	L int `json:"L,omitempty"`
	// Strategy is the L-PNDCA chunk-selection rule by name: "order",
	// "randomorder", "random" or "rates" ("" = engine default).
	Strategy string `json:"strategy,omitempty"`
	// Partition names a partition builder ("vonneumann5", "modular:16";
	// "" = engine default, the five-chunk von Neumann partition with a
	// modular colouring fallback).
	Partition string `json:"partition,omitempty"`
	// TypeSplit names a type-split builder ("bydirection"; "" = engine
	// default, the Table II split by direction).
	TypeSplit string `json:"typesplit,omitempty"`
	// Workers is the sweep-goroutine count (PNDCA, typepart) or strip
	// count (DDRSM); 0 = sequential / engine default.
	Workers int `json:"workers,omitempty"`
	// Y is the ZGB CO fraction (nil = engine default; a pointer because
	// y = 0 is a valid, if degenerate, fraction).
	Y *float64 `json:"y,omitempty"`
	// BlockW, BlockH are the BCA block dimensions (0 = engine default).
	BlockW int `json:"blockW,omitempty"`
	BlockH int `json:"blockH,omitempty"`
	// DeterministicTime replaces exponential clock increments with
	// their mean 1/(N·K).
	DeterministicTime bool `json:"deterministicTime,omitempty"`
}

// set returns the bitmask of fields that deviate from the zero value.
func (o Options) set() OptionSet {
	var s OptionSet
	if o.L != 0 {
		s |= OptL
	}
	if o.Strategy != "" {
		s |= OptStrategy
	}
	if o.Partition != "" {
		s |= OptPartition
	}
	if o.TypeSplit != "" {
		s |= OptTypeSplit
	}
	if o.Workers != 0 {
		s |= OptWorkers
	}
	if o.Y != nil {
		s |= OptY
	}
	if o.BlockW != 0 || o.BlockH != 0 {
		s |= OptBlocks
	}
	if o.DeterministicTime {
		s |= OptDeterministicTime
	}
	return s
}

// Factory builds an engine over a compiled model, a configuration and a
// random source. cm is nil for model-free engines (Spec.ModelFree). o
// has passed CheckOptions; part and split are the partition and type
// split its builder names resolved to (nil when unnamed).
type Factory func(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o Options, part *partition.Partition, split *partition.TypeSplit) (Engine, error)

// Spec describes one registered engine.
type Spec struct {
	// Name is the registry key ("rsm", "vssm", …).
	Name string
	// Doc is a one-line description with the paper section.
	Doc string
	// Accepts is the set of options the engine's factory understands.
	Accepts OptionSet
	// ModelFree marks engines that need no compiled model (ziff).
	ModelFree bool
	// Epoch is the engine's trajectory generation, folded into every
	// spec hash: bump it with any change to the engine's trajectories
	// or checkpoint payload to retire only this engine's old results.
	Epoch uint32
	// New is the factory.
	New Factory
}

var engines = map[string]Spec{}

// Register adds an engine spec; engine packages call it from init.
// Duplicate names and incomplete specs panic: both are programming
// errors caught at process start.
func Register(s Spec) {
	if s.Name == "" || s.New == nil {
		panic("registry: Register with empty name or nil factory")
	}
	if _, dup := engines[s.Name]; dup {
		panic(fmt.Sprintf("registry: engine %q registered twice", s.Name))
	}
	engines[s.Name] = s
}

// Names returns the registered engine names, sorted.
func Names() []string {
	names := make([]string, 0, len(engines))
	for name := range engines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Specs returns every registered spec, sorted by name.
func Specs() []Spec {
	out := make([]Spec, 0, len(engines))
	for _, name := range Names() {
		out = append(out, engines[name])
	}
	return out
}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, bool) {
	s, ok := engines[name]
	return s, ok
}

// strategies are the L-PNDCA chunk-selection strategy names, in the
// order of core.Strategy.
var strategies = []string{"order", "randomorder", "random", "rates"}

// CheckOptions validates, without building anything, that every set
// option is one the named engine accepts and that its value is one an
// engine can run: a finite CO fraction in [0,1], L ≥ 1, a known
// strategy, positive block sizes and registered builder names.
func CheckOptions(name string, o Options) error {
	spec, ok := engines[name]
	if !ok {
		return fmt.Errorf("registry: unknown engine %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	if extra := o.set() &^ spec.Accepts; extra != 0 {
		return fmt.Errorf("registry: engine %q does not accept option(s) %s (accepts: %s)",
			name, extra, spec.Accepts)
	}
	switch {
	case o.Y != nil && !(*o.Y >= 0 && *o.Y <= 1): // NaN fails both
		return fmt.Errorf("registry: CO fraction %v outside [0,1]", *o.Y)
	case o.L < 0:
		return fmt.Errorf("registry: L must be >= 1, got %d", o.L)
	case o.Strategy != "" && !slices.Contains(strategies, o.Strategy):
		return fmt.Errorf("registry: unknown chunk-selection strategy %q (want %s)",
			o.Strategy, strings.Join(strategies, ", "))
	case o.set()&OptBlocks != 0 && (o.BlockW < 1 || o.BlockH < 1):
		return fmt.Errorf("registry: block sizes must both be positive, got %dx%d", o.BlockW, o.BlockH)
	}
	if o.Partition != "" {
		if err := ValidatePartitionSpec(o.Partition); err != nil {
			return err
		}
	}
	if o.TypeSplit != "" {
		return ValidateTypeSplitSpec(o.TypeSplit)
	}
	return nil
}

// New builds the engine registered under name after CheckOptions,
// resolving o's builder names against the compiled model.
func New(name string, cm *model.Compiled, cfg *lattice.Config, src *rng.Source, o Options) (Engine, error) {
	if err := CheckOptions(name, o); err != nil {
		return nil, err
	}
	spec := engines[name]
	if cfg == nil {
		return nil, fmt.Errorf("registry: engine %q needs a configuration", name)
	}
	if src == nil {
		return nil, fmt.Errorf("registry: engine %q needs a random source", name)
	}
	if cm == nil && !spec.ModelFree {
		return nil, fmt.Errorf("registry: engine %q needs a compiled model", name)
	}
	var m *model.Model
	if cm != nil {
		m = cm.Model
	}
	part, split, err := Resolve(o, m, cfg.Lattice())
	if err != nil {
		return nil, err
	}
	return spec.New(cm, cfg, src, o, part, split)
}
