package registry_test

import (
	"strings"
	"testing"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/registry"
)

func zgb() *model.Model { return model.NewZGB(model.DefaultZGBRates()) }

// An unknown builder name is rejected with the list of known ones.
func TestUnknownBuilderListsRegistered(t *testing.T) {
	err := registry.ValidatePartitionSpec("hexagonal")
	if err == nil || !strings.Contains(err.Error(), "checkerboard, modular, singlechunk, singletons, vonneumann5") {
		t.Errorf("unknown partition builder: %v", err)
	}
	err = registry.ValidateTypeSplitSpec("bytype")
	if err == nil || !strings.Contains(err.Error(), "(registered: bydirection)") {
		t.Errorf("unknown type-split builder: %v", err)
	}
}

// Only "modular" takes an argument, and only a positive colour bound.
func TestBuilderArgumentsRejected(t *testing.T) {
	for _, spec := range []string{"modular:0", "modular:-2", "modular:x", "checkerboard:3"} {
		if err := registry.ValidatePartitionSpec(spec); err == nil {
			t.Errorf("partition builder spec %q accepted", spec)
		}
	}
	if err := registry.ValidateTypeSplitSpec("bydirection:x"); err == nil {
		t.Error(`type-split builder spec "bydirection:x" accepted`)
	}
}

// Every builder builds on a lattice whose extents suit them all.
func TestBuildersBuild(t *testing.T) {
	lat := lattice.NewSquare(10)
	for _, spec := range append(registry.PartitionBuilderNames(), "modular:16") {
		p, err := registry.BuildPartition(spec, zgb(), lat)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if p.NumChunks() < 1 {
			t.Errorf("%s: empty partition", spec)
		}
	}
	if _, err := registry.BuildTypeSplit("bydirection", zgb(), lat); err != nil {
		t.Errorf("bydirection: %v", err)
	}
}

// The modular colouring consults the model, so building it without one
// is an error, not a panic.
func TestModularNeedsModel(t *testing.T) {
	_, err := registry.BuildPartition("modular", nil, lattice.NewSquare(10))
	if err == nil || !strings.Contains(err.Error(), "needs a model") {
		t.Fatalf("modular without a model: %v", err)
	}
	if _, err := registry.BuildPartition("checkerboard", nil, lattice.NewSquare(10)); err != nil {
		t.Fatalf("model-free builder without a model: %v", err)
	}
}
