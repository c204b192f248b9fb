package specfile

import (
	"strings"
	"testing"

	// The engine packages self-register their factories; the registry
	// is empty without them (production callers get them through the
	// parsurf facade).
	_ "parsurf/internal/ca"
	_ "parsurf/internal/core"
	_ "parsurf/internal/dmc"
	_ "parsurf/internal/parallel"
	_ "parsurf/internal/ziff"
)

func TestParseMinimalSpec(t *testing.T) {
	doc := `{
	  "model":   {"name": "zgb"},
	  "lattice": {"l0": 40, "l1": 40},
	  "engine":  {"name": "lpndca", "L": 10, "strategy": "rates", "partition": "vonneumann5"},
	  "seed":    42,
	  "init":    {"preset": "empty"}
	}`
	s, err := ParseBytes([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine.Name != "lpndca" || s.Engine.L != 10 || s.Engine.Strategy != "rates" || s.Engine.Partition != "vonneumann5" {
		t.Errorf("engine decoded as %+v", s.Engine)
	}
	m, err := s.Model.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSpecies() != 3 {
		t.Errorf("zgb has %d species", m.NumSpecies())
	}
	// Marshal re-validates and renders stable JSON.
	if _, err := s.Marshal(); err != nil {
		t.Fatal(err)
	}
}

func TestModelPresetParams(t *testing.T) {
	if defaults := modelPresets["zgb"].defaults; defaults["kCO"] != 0.55 {
		t.Fatalf("zgb defaults %v", defaults)
	}
	m, err := BuildNamedModel("zgb", map[string]float64{"kCO": 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// The override lands in the CO-adsorption rate constant.
	found := false
	for i := range m.Types {
		if m.Types[i].Rate == 0.7 {
			found = true
		}
	}
	if !found {
		t.Error("kCO override not reflected in any reaction rate")
	}
	if _, err := BuildNamedModel("zgb", map[string]float64{"nope": 1}); err == nil ||
		!strings.Contains(err.Error(), "accepts: kCO, kCO2, kO2") {
		t.Errorf("unknown param error %v", err)
	}
	if _, err := BuildNamedModel("wrong", nil); err == nil ||
		!strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown preset error %v", err)
	}
	names := ModelNames()
	if len(names) != 4 {
		t.Errorf("model presets %v", names)
	}
}

func TestInlineModelTextRoundTrip(t *testing.T) {
	m, err := BuildNamedModel("ptco", nil)
	if err != nil {
		t.Fatal(err)
	}
	text, err := ModelText(m)
	if err != nil {
		t.Fatal(err)
	}
	ref := &ModelRef{Text: text}
	back, err := ref.Build()
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSpecies() != m.NumSpecies() || len(back.Types) != len(m.Types) {
		t.Fatalf("text round trip: %d species / %d types, want %d / %d",
			back.NumSpecies(), len(back.Types), m.NumSpecies(), len(m.Types))
	}
	for i := range m.Types {
		if back.Types[i].Rate != m.Types[i].Rate {
			t.Errorf("type %d rate %v != %v after text round trip", i, back.Types[i].Rate, m.Types[i].Rate)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name, doc, substr string
	}{
		{"engine missing", `{}`, "unknown engine"},
		{"both model forms", `{"model": {"name": "zgb", "text": "species *"}, "engine": {"name": "rsm"}}`, "pick one"},
		{"params with text", `{"model": {"text": "species * A\nreaction hop 1 (0,0): A -> *", "params": {"x": 1}}, "engine": {"name": "rsm"}}`, "named model presets"},
		{"bad lattice", `{"model": {"name": "zgb"}, "lattice": {"l0": 0, "l1": 5}, "engine": {"name": "rsm"}}`, "positive"},
		{"typesplit arg", `{"model": {"name": "zgb"}, "engine": {"name": "typepart", "typesplit": "bydirection:3"}}`, "takes no argument"},
		{"modular arg", `{"model": {"name": "zgb"}, "engine": {"name": "pndca", "partition": "modular:x"}}`, "colour bound"},
	}
	for _, tc := range cases {
		_, err := ParseBytes([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.substr)
		}
	}
}
