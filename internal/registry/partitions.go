package registry

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/partition"
)

// Named partition and type-split builders. A builder spec is a name with
// an optional ":<arg>" suffix (e.g. "modular:16"); the names are plain
// data, so a partition choice can live in a serialized session spec and
// be rebuilt deterministically on any machine. Builders receive the
// model and lattice the engine is being built for; Resolve is the one
// place that runs them.

// partitionBuilder is one named site-partition builder.
type partitionBuilder struct {
	// needsModel marks builders that consult the reaction model (the
	// modular-colouring search); they are unavailable to model-free
	// engines.
	needsModel bool
	// build constructs the partition. arg is the text after ":" in the
	// builder spec ("" when absent).
	build func(m *model.Model, lat *lattice.Lattice, arg string) (*partition.Partition, error)
}

// defaultModularMaxK bounds the modular-colouring search when the
// "modular" builder is used without an explicit colour bound.
const defaultModularMaxK = 64

// partitionBuilders are the named partition builders. Only "modular"
// takes an argument: "modular:K" bounds the colour search at K.
var partitionBuilders = map[string]partitionBuilder{
	// Five-chunk von Neumann colouring of Fig. 4 (extents must be
	// multiples of 5).
	"vonneumann5": {build: func(_ *model.Model, lat *lattice.Lattice, _ string) (*partition.Partition, error) {
		return partition.VonNeumann5(lat)
	}},
	// Two-chunk checkerboard of Fig. 6 (even extents).
	"checkerboard": {build: func(_ *model.Model, lat *lattice.Lattice, _ string) (*partition.Partition, error) {
		return partition.Checkerboard(lat)
	}},
	// Degenerate m=1 partition (L-PNDCA ≡ RSM).
	"singlechunk": {build: func(_ *model.Model, lat *lattice.Lattice, _ string) (*partition.Partition, error) {
		return partition.SingleChunk(lat), nil
	}},
	// Degenerate m=N partition (L-PNDCA with L=1 ≡ RSM).
	"singletons": {build: func(_ *model.Model, lat *lattice.Lattice, _ string) (*partition.Partition, error) {
		return partition.Singletons(lat), nil
	}},
	// Smallest valid modular colouring for the model.
	"modular": {needsModel: true, build: func(m *model.Model, lat *lattice.Lattice, arg string) (*partition.Partition, error) {
		maxK := defaultModularMaxK
		if arg != "" {
			maxK, _ = strconv.Atoi(arg) // validated by ValidatePartitionSpec
		}
		return partition.ModularColoring(m, lat, maxK)
	}},
}

// typeSplitBuilders are the named Ω×T split builders; none takes an
// argument.
var typeSplitBuilders = map[string]func(m *model.Model, lat *lattice.Lattice) (*partition.TypeSplit, error){
	// Table II split by reaction direction with checkerboard partitions.
	"bydirection": partition.SplitByDirection,
}

// PartitionBuilderNames returns the partition builder names, sorted.
func PartitionBuilderNames() []string { return slices.Sorted(maps.Keys(partitionBuilders)) }

// TypeSplitBuilderNames returns the type-split builder names, sorted.
func TypeSplitBuilderNames() []string { return slices.Sorted(maps.Keys(typeSplitBuilders)) }

// splitBuilderSpec separates "name:arg" into its parts.
func splitBuilderSpec(spec string) (name, arg string) {
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		return spec[:i], spec[i+1:]
	}
	return spec, ""
}

// ValidatePartitionSpec checks that a partition builder spec names a
// registered builder with a well-formed argument, without building.
func ValidatePartitionSpec(spec string) error {
	name, arg := splitBuilderSpec(spec)
	if _, ok := partitionBuilders[name]; !ok {
		return fmt.Errorf("registry: unknown partition builder %q (registered: %s)",
			spec, strings.Join(PartitionBuilderNames(), ", "))
	}
	if arg != "" && name != "modular" {
		return fmt.Errorf("registry: partition builder %q takes no argument (got %q)", name, arg)
	}
	if name == "modular" && arg != "" {
		if k, err := strconv.Atoi(arg); err != nil || k < 1 {
			return fmt.Errorf("registry: partition builder spec %q: argument must be a positive colour bound", spec)
		}
	}
	return nil
}

// BuildPartition resolves a partition builder spec against a model and
// lattice. m may be nil for builders that do not consult the model.
func BuildPartition(spec string, m *model.Model, lat *lattice.Lattice) (*partition.Partition, error) {
	if err := ValidatePartitionSpec(spec); err != nil {
		return nil, err
	}
	name, arg := splitBuilderSpec(spec)
	b := partitionBuilders[name]
	if b.needsModel && m == nil {
		return nil, fmt.Errorf("registry: partition builder %q needs a model", spec)
	}
	p, err := b.build(m, lat, arg)
	if err != nil {
		return nil, fmt.Errorf("registry: partition builder %q: %w", spec, err)
	}
	return p, nil
}

// ValidateTypeSplitSpec checks that a type-split builder spec names a
// registered builder.
func ValidateTypeSplitSpec(spec string) error {
	name, arg := splitBuilderSpec(spec)
	if _, ok := typeSplitBuilders[name]; !ok {
		return fmt.Errorf("registry: unknown type-split builder %q (registered: %s)",
			spec, strings.Join(TypeSplitBuilderNames(), ", "))
	}
	if arg != "" {
		return fmt.Errorf("registry: type-split builder %q takes no argument (got %q)", name, arg)
	}
	return nil
}

// BuildTypeSplit resolves a type-split builder spec against a model and
// lattice.
func BuildTypeSplit(spec string, m *model.Model, lat *lattice.Lattice) (*partition.TypeSplit, error) {
	if err := ValidateTypeSplitSpec(spec); err != nil {
		return nil, err
	}
	name, _ := splitBuilderSpec(spec)
	ts, err := typeSplitBuilders[name](m, lat)
	if err != nil {
		return nil, fmt.Errorf("registry: type-split builder %q: %w", spec, err)
	}
	return ts, nil
}

// Resolve builds the partition and type split o's builder names select
// against a model and lattice (nil for an unnamed one). m may be nil for
// builders that do not consult the model. A session spec resolves once
// and shares the result, read-only, with every engine built from it.
func Resolve(o Options, m *model.Model, lat *lattice.Lattice) (*partition.Partition, *partition.TypeSplit, error) {
	var part *partition.Partition
	var split *partition.TypeSplit
	var err error
	if o.Partition != "" {
		if part, err = BuildPartition(o.Partition, m, lat); err != nil {
			return nil, nil, err
		}
	}
	if o.TypeSplit != "" {
		if split, err = BuildTypeSplit(o.TypeSplit, m, lat); err != nil {
			return nil, nil, err
		}
	}
	return part, split, nil
}
