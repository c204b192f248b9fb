// Package specfile defines the session spec document: a plain JSON
// value describing (model, lattice, engine, parameters, seed, initial
// condition) with no Go values in it, so a workload that ran yesterday
// is a file that reruns bit-identically today — locally through
// `surfsim -spec`, or over HTTP through cmd/surfd.
//
// It is the only spec representation. The root package's NewSpec
// options edit a Spec and ParseSpec decodes one; both then run the same
// Validate and normalization, and the spec's canonical JSON (what its
// Hash and every cache key derive from) is this document marshalled.
// The engine section is a name plus registry.Options inline, so the
// options a factory reads are the options the file carries.
//
// Every reference in a spec is a registry name: engines come from
// internal/registry, partitions and type-splits from the named builders
// registered alongside them, initial conditions from
// internal/initpreset, and models either from the named presets of this
// package or inline in the internal/modelfile text format. Validation
// is registry-aware: an unknown name is reported together with the
// registered alternatives, and option values no engine can run are
// rejected here rather than when the engine is built.
//
// A minimal spec:
//
//	{
//	  "model":   {"name": "zgb"},
//	  "lattice": {"l0": 100, "l1": 100},
//	  "engine":  {"name": "lpndca", "L": 100, "strategy": "rates", "partition": "vonneumann5"},
//	  "seed":    42,
//	  "init":    {"preset": "empty"}
//	}
package specfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"parsurf/internal/initpreset"
	"parsurf/internal/model"
	"parsurf/internal/modelfile"
	"parsurf/internal/registry"
)

// Spec is the serialized session description. The zero value of every
// optional field means "default" (100×100 lattice, seed 1, all-vacant
// initial configuration, engine-default options).
type Spec struct {
	// Model describes the reaction model. Required for every engine
	// except the model-free ones (ziff), and rejected for those.
	Model *ModelRef `json:"model,omitempty"`
	// Lattice is the periodic lattice extent (default 100×100).
	Lattice *Extents `json:"lattice,omitempty"`
	// Engine selects the engine by registry name, with its options.
	Engine EngineRef `json:"engine"`
	// Seed is the deterministic base seed (default 1).
	Seed *uint64 `json:"seed,omitempty"`
	// Init names the initial-configuration preset (default: all sites
	// vacant).
	Init *InitRef `json:"init,omitempty"`
}

// ModelRef references a reaction model: either a named preset with
// parameters, or an inline definition in the modelfile text format.
// Exactly one of Name and Text must be set.
type ModelRef struct {
	// Name is a model preset ("zgb", "ptco", "diffusion", "ising").
	Name string `json:"name,omitempty"`
	// Params override the preset's default parameters. An unknown key
	// is rejected with the error listing the keys the preset accepts.
	// Only valid with Name.
	Params map[string]float64 `json:"params,omitempty"`
	// Text is an inline model definition in the internal/modelfile
	// format (the same text `surfsim -modelfile` reads).
	Text string `json:"text,omitempty"`
}

// Extents is a lattice size.
type Extents struct {
	L0 int `json:"l0"`
	L1 int `json:"l1"`
}

// EngineRef selects an engine by registry name, with its options inline:
// {"name": "lpndca", "L": 100, "strategy": "rates"}.
type EngineRef struct {
	// Name is the engine's registry name ("rsm", "lpndca", …).
	Name string `json:"name"`
	registry.Options
}

// InitRef names an initial-configuration preset with its parameters.
type InitRef struct {
	// Preset is the initpreset registry name ("empty", "random", …).
	Preset string `json:"preset"`
	// Fractions are the per-species weights of "random".
	Fractions []float64 `json:"fractions,omitempty"`
	// Species are the explicit species values of "fill"/"checkerboard".
	Species []int `json:"species,omitempty"`
}

// Params converts the reference to initpreset parameters.
func (in *InitRef) Params() initpreset.Params {
	return initpreset.Params{Fractions: in.Fractions, Species: in.Species}
}

// Parse reads and validates a spec document. Unknown JSON fields are
// rejected, so a typo'd option never yields a plausible-looking run.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("specfile: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseBytes is Parse over a byte slice.
func ParseBytes(data []byte) (*Spec, error) {
	return Parse(bytes.NewReader(data))
}

// Marshal renders the spec as indented JSON after validating it.
func (s *Spec) Marshal() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(s, "", "  ")
}

// Validate checks every name in the spec against its registry and every
// parameter against what the named thing accepts.
func (s *Spec) Validate() error {
	eng, ok := registry.Lookup(s.Engine.Name)
	if !ok {
		return fmt.Errorf("specfile: unknown engine %q (registered: %s)",
			s.Engine.Name, strings.Join(registry.Names(), ", "))
	}
	if err := registry.CheckOptions(eng.Name, s.Engine.Options); err != nil {
		return fmt.Errorf("specfile: %w", err)
	}
	if s.Lattice != nil && (s.Lattice.L0 < 1 || s.Lattice.L1 < 1) {
		return fmt.Errorf("specfile: lattice extents must be positive, got %dx%d", s.Lattice.L0, s.Lattice.L1)
	}
	switch {
	case eng.ModelFree && s.Model != nil:
		return fmt.Errorf("specfile: engine %q is model-free; remove the model section", eng.Name)
	case !eng.ModelFree && s.Model == nil:
		return fmt.Errorf("specfile: engine %q needs a model (presets: %s; or inline text)",
			eng.Name, strings.Join(ModelNames(), ", "))
	}
	if s.Model != nil {
		if err := s.Model.check(); err != nil {
			return err
		}
	}
	if s.Init != nil {
		if _, err := initpreset.Build(s.Init.Preset, s.Init.Params()); err != nil {
			return fmt.Errorf("specfile: %w", err)
		}
	}
	return nil
}

// check validates the reference's structure — exactly one of
// name/text, known preset, known parameter keys — without constructing
// the model. Inline text is only parsed by Build, so callers that
// validate then build (the session decode path) parse it once.
func (m *ModelRef) check() error {
	switch {
	case m.Name != "" && m.Text != "":
		return fmt.Errorf("specfile: model has both a preset name and inline text; pick one")
	case m.Name != "":
		preset, ok := modelPresets[m.Name]
		if !ok {
			return fmt.Errorf("specfile: unknown model preset %q (registered: %s)",
				m.Name, strings.Join(ModelNames(), ", "))
		}
		for k := range m.Params {
			if _, known := preset.defaults[k]; !known {
				return fmt.Errorf("specfile: model preset %q has no parameter %q (accepts: %s)",
					m.Name, k, strings.Join(presetParamNames(preset), ", "))
			}
		}
		return nil
	case m.Text != "":
		if len(m.Params) > 0 {
			return fmt.Errorf("specfile: params only apply to named model presets; bake rates into the inline text")
		}
		return nil
	default:
		return fmt.Errorf("specfile: model needs a preset name (%s) or inline text",
			strings.Join(ModelNames(), ", "))
	}
}

// Build constructs the referenced model.
func (m *ModelRef) Build() (*model.Model, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	if m.Text != "" {
		mdl, err := modelfile.Parse(strings.NewReader(m.Text))
		if err != nil {
			return nil, fmt.Errorf("specfile: inline model: %w", err)
		}
		return mdl, nil
	}
	return BuildNamedModel(m.Name, m.Params)
}

// modelPreset is one named model family: defaults plus a builder over a
// resolved parameter map.
type modelPreset struct {
	defaults map[string]float64
	build    func(p map[string]float64) *model.Model
}

// modelPresets maps preset names to their parameterised builders. The
// parameter keys are the exported rate-struct fields in lowerCamelCase.
var modelPresets = map[string]modelPreset{
	"zgb": { // Ziff–Gulari–Barshad CO oxidation, Table I
		defaults: func() map[string]float64 {
			r := model.DefaultZGBRates()
			return map[string]float64{"kCO": r.KCO, "kO2": r.KO2, "kCO2": r.KCO2}
		}(),
		build: func(p map[string]float64) *model.Model {
			return model.NewZGB(model.ZGBRates{KCO: p["kCO"], KO2: p["kO2"], KCO2: p["kCO2"]})
		},
	},
	"ptco": { // Pt(100) CO oxidation with surface reconstruction (§6)
		defaults: func() map[string]float64 {
			r := model.DefaultPtCORates()
			return map[string]float64{
				"yCO": r.YCO, "yO2": r.YO2, "kDes": r.KDes, "kDiff": r.KDiff, "kRx": r.KRx,
				"vLift": r.VLift, "vRelax": r.VRelax, "vNucLift": r.VNucLift, "vNucRelax": r.VNucRelax,
			}
		}(),
		build: func(p map[string]float64) *model.Model {
			return model.NewPtCO(model.PtCORates{
				YCO: p["yCO"], YO2: p["yO2"], KDes: p["kDes"], KDiff: p["kDiff"], KRx: p["kRx"],
				VLift: p["vLift"], VRelax: p["vRelax"], VNucLift: p["vNucLift"], VNucRelax: p["vNucRelax"],
			})
		},
	},
	"diffusion": { // single-species hop model of Fig. 2
		defaults: map[string]float64{"hop": 1},
		build: func(p map[string]float64) *model.Model {
			return model.NewDimerDiffusion(p["hop"])
		},
	},
	"ising": { // Metropolis spin-flip Ising model
		defaults: map[string]float64{"betaJ": 0.4},
		build: func(p map[string]float64) *model.Model {
			return model.NewIsing(p["betaJ"])
		},
	},
}

// ModelNames returns the model preset names, sorted.
func ModelNames() []string {
	names := make([]string, 0, len(modelPresets))
	for name := range modelPresets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BuildNamedModel constructs a model preset with the given parameter
// overrides. Unknown parameter keys are rejected with the accepted set.
func BuildNamedModel(name string, params map[string]float64) (*model.Model, error) {
	preset, ok := modelPresets[name]
	if !ok {
		return nil, fmt.Errorf("specfile: unknown model preset %q (registered: %s)",
			name, strings.Join(ModelNames(), ", "))
	}
	resolved := make(map[string]float64, len(preset.defaults))
	for k, v := range preset.defaults {
		resolved[k] = v
	}
	for k, v := range params {
		if _, known := preset.defaults[k]; !known {
			return nil, fmt.Errorf("specfile: model preset %q has no parameter %q (accepts: %s)",
				name, k, strings.Join(presetParamNames(preset), ", "))
		}
		resolved[k] = v
	}
	return preset.build(resolved), nil
}

// presetParamNames lists a preset's parameter keys, sorted.
func presetParamNames(p modelPreset) []string {
	keys := make([]string, 0, len(p.defaults))
	for k := range p.defaults {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ModelText renders a model in the inline text form ModelRef accepts —
// the canonical serialization for models built programmatically rather
// than from a preset.
func ModelText(m *model.Model) (string, error) {
	var buf bytes.Buffer
	if err := modelfile.Format(&buf, m); err != nil {
		return "", err
	}
	return buf.String(), nil
}
