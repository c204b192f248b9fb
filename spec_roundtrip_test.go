package parsurf_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"parsurf"
	"parsurf/internal/goldentrace"
)

// representativeSpec builds, for each registered engine, a spec that
// exercises the options the engine accepts — including named partition
// and type-split builders and an init preset — so the round-trip test
// covers every serializable field, driven by the registry itself.
func representativeSpec(t *testing.T, name string) *parsurf.SessionSpec {
	t.Helper()
	engSpec, ok := parsurf.LookupEngine(name)
	if !ok {
		t.Fatalf("engine %q not registered", name)
	}
	var engOpts []parsurf.EngineOption
	if engSpec.Accepts&parsurf.OptL != 0 {
		engOpts = append(engOpts, parsurf.Trials(7))
	}
	if engSpec.Accepts&parsurf.OptStrategy != 0 {
		engOpts = append(engOpts, parsurf.StrategyName("rates"))
	}
	if engSpec.Accepts&parsurf.OptPartition != 0 {
		engOpts = append(engOpts, parsurf.PartitionNamed("vonneumann5"))
	}
	if engSpec.Accepts&parsurf.OptTypeSplit != 0 {
		engOpts = append(engOpts, parsurf.TypeSplitNamed("bydirection"))
	}
	if engSpec.Accepts&parsurf.OptWorkers != 0 {
		engOpts = append(engOpts, parsurf.Workers(2))
	}
	if engSpec.Accepts&parsurf.OptY != 0 {
		engOpts = append(engOpts, parsurf.COFraction(0.51))
	}
	if engSpec.Accepts&parsurf.OptBlocks != 0 {
		engOpts = append(engOpts, parsurf.BlockSize(4, 4))
	}
	opts := []parsurf.SessionOption{
		parsurf.WithLattice(goldentrace.Side, goldentrace.Side),
		parsurf.WithEngine(name, engOpts...),
		parsurf.WithSeed(goldentrace.Seed),
	}
	if !engSpec.ModelFree {
		opts = append(opts,
			parsurf.WithModelPreset("zgb", map[string]float64{"kCO": 0.6}),
			parsurf.WithInit(parsurf.RandomInit(0.8, 0.1, 0.1)),
		)
	}
	spec, err := parsurf.NewSpec(opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return spec
}

// fingerprintSpec runs a session built from the spec for n steps and
// hashes (configuration, clock) after every step.
func fingerprintSpec(t *testing.T, spec *parsurf.SessionSpec, steps int) goldentrace.Trace {
	t.Helper()
	sess, err := spec.Session()
	if err != nil {
		t.Fatal(err)
	}
	return goldentrace.Fingerprint(sess.Engine(), steps)
}

// pinCase is one spec whose serialized bytes are pinned.
type pinCase struct {
	name string
	spec *parsurf.SessionSpec
}

// pinCases returns the representative spec of every registered engine
// plus three inputs the representative specs do not reach: an inline
// model set via WithModel, the default lattice and seed, and an
// explicit zero CO fraction.
func pinCases(t *testing.T) []pinCase {
	t.Helper()
	var cases []pinCase
	for _, name := range parsurf.Engines() {
		cases = append(cases, pinCase{name, representativeSpec(t, name)})
	}
	extra := []struct {
		name string
		opts []parsurf.SessionOption
	}{
		{"inline-model", []parsurf.SessionOption{
			parsurf.WithModel(parsurf.NewPtCOModel(parsurf.DefaultPtCORates())),
			parsurf.WithLattice(goldentrace.Side, goldentrace.Side),
			parsurf.WithEngine("rsm"),
			parsurf.WithSeed(goldentrace.Seed),
		}},
		{"defaults", []parsurf.SessionOption{
			parsurf.WithModelPreset("zgb", nil),
			parsurf.WithEngine("rsm"),
		}},
		{"ziff-y0", []parsurf.SessionOption{
			parsurf.WithLattice(goldentrace.Side, goldentrace.Side),
			parsurf.WithEngine("ziff", parsurf.COFraction(0)),
			parsurf.WithSeed(goldentrace.Seed),
		}},
	}
	for _, c := range extra {
		spec, err := parsurf.NewSpec(c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cases = append(cases, pinCase{c.name, spec})
	}
	return cases
}

// specPins are the SHA-256 sums of json.Marshal(spec) for every pin
// case. Every cache key derives from these bytes (Hash, the job content
// hash, the checkpoint spec guard), so they are a fixed contract: a
// change here orphans every stored result and checkpoint.
var specPins = map[string]string{
	"bca":          "81489056ffb2b8c3c670ea741ebf9fa27438e6220fba51ba40f63c164ffea027",
	"ddrsm":        "e98e5f7e3f1989310aa4f72cc213ae96b1de9ef97b53a938dd8daacafeff6eed",
	"frm":          "1bf92b04980fca518d9d28ab2ea1c599343cda0f140a35e9ac72af82a0a94b0e",
	"lpndca":       "b288774c38581fe237b338aa5b510aa041240df5433307eb3a029dc2d5bad2fe",
	"ndca":         "289d9347c2f7f31c3947f1c8870382bff6376f8146d1a2964d3fabdd1b986b43",
	"pndca":        "2d5e81ce0cb941134d618adfa13205113375bf8fda4cc4b8f58c96e007bce9d6",
	"rsm":          "93c6016f46340f7b3d4c0a66f5d08645ed8ce43a48553e8eb428f487f75b358b",
	"syncndca":     "fa7c78a573b9477d3d6ca7feb9c00ec50e97fd7c139f8c8b2aaab8fd1bd2571e",
	"typepart":     "67d33c67d02b57cdaea67ac6288082e496c467ee4ffc8bcaeb029e26152e7dc4",
	"vssm":         "02a9339f6ffc83b5546dc40b3d3c9dd99606958ec0493d82ce6f8b22635e7f7d",
	"ziff":         "9232c0795ec6e630e42455ba221eeb9ea1c0484a819aee7d6e8809a85ea138fd",
	"inline-model": "5e7500fce39d0610d468a2163be7c427d95526af1a97a58e17b0066c80e2c956",
	"defaults":     "740f7e59216d07c449fcffed895d4255b5f0d0bcad954bf2a30227c0ff7579c2",
	"ziff-y0":      "abc8deb7a33b099b8b43394e8ee681d81d5cb6bd3681fc5a1b9481f11a9126f7",
}

// hashPins are the Hash of every pin case: the spec bytes pinned above
// together with the engine's trajectory epoch. A case's hash moves when
// its spec bytes move or its engine's registry.Spec.Epoch is bumped,
// and with it every result, checkpoint and shard stamped with it.
var hashPins = map[string]string{
	"bca":          "b959605556d389b776d4eed5c7f01e8796f15293dbced1f4ca0202a20f460175",
	"ddrsm":        "cfa816753351c9890b950668d871c675b9d6b399218ffa545b3bf65c69e865a3",
	"frm":          "b5bfb0b5a17f0b8c291cfe0e01570cc1f61a822183c8fa974730b0526541291c",
	"lpndca":       "90fd2df0d8f94fc7f24bd4baf5b4c6ab33c17d85b57a0e9e3cbdb31354633317",
	"ndca":         "edc0b8305011b85453a4b4e31af475d60e6c2a9bc7462b4388cba8a30c30d5c3",
	"pndca":        "e3d81beda25140f10f6ae914008a69c8c3302a3c05f084dc63b22c724ac352c8",
	"rsm":          "76fe85c587fa95b2084d57bdf4cc304e0dbe8f456a4a1980c8202dbc42543563",
	"syncndca":     "8ed67a44abb2aef4f7f547c3133ae3da8ee281acc2308b48e2ed1c1f84682d75",
	"typepart":     "8da90ff56be2bc857993bc561c30fc8f472f72c72f683a4d769418a785f260b8",
	"vssm":         "b2ce4aeda6b731afedb75d817af658cae13cdfc36fbad7f6f45fce2b097f97c1",
	"ziff":         "cfa8610391df1f951c168fc0774d3b17e8695f76579cf211704d6dcf66b5db92",
	"inline-model": "931ecbbef9adaed846147da4190e6f93724fb9b7c68dde30eb5927b2196cd839",
	"defaults":     "66f239d146f919bb269cb30837c38c37f2d861b4cb211ae562559f40898a21d3",
	"ziff-y0":      "b8b867b5c284b1b0ec8605834fcbd9624b2ab8223660237101dd07b5cfaf648d",
}

// The registry-driven round-trip property: for every registered
// engine, a representative spec survives Marshal → Unmarshal exactly —
// the decoded spec reproduces the original's 500-step trajectory bit
// for bit (configurations AND clock), and a second marshal is
// byte-identical to the first (the serialization is a fixed point).
// The marshalled bytes and Hash are pinned.
func TestSpecJSONRoundTripAllEngines(t *testing.T) {
	const steps = 500
	for _, c := range pinCases(t) {
		name, spec := c.name, c.spec
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != specPins[name] {
			t.Errorf("%s: spec bytes sha256 %s, want %s\n  %s", name, got, specPins[name], data)
		}
		if got := spec.Hash(); got != hashPins[name] {
			t.Errorf("%s: Hash() %s, want %s", name, got, hashPins[name])
		}
		back, err := parsurf.ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: unmarshal %s: %v", name, data, err)
		}
		data2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if !bytes.Equal(data, data2) {
			t.Errorf("%s: serialization not a fixed point:\n  %s\n  %s", name, data, data2)
		}
		want := fingerprintSpec(t, spec, steps)
		got := fingerprintSpec(t, back, steps)
		if got != want {
			t.Errorf("%s: decoded spec trajectory fingerprint %v, want %v — round trip not exact",
				name, got, want)
		}
	}
}

// An explicit zero CO fraction is data, not "unset": it serializes.
func TestSpecZeroCOFractionSerializes(t *testing.T) {
	spec, err := parsurf.NewSpec(parsurf.WithEngine("ziff", parsurf.COFraction(0)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"y":0`) {
		t.Fatalf("COFraction(0) dropped from %s", data)
	}
}

// A model set via WithModel (no preset) serializes as inline modelfile
// text and still round-trips exactly.
func TestSpecInlineModelRoundTrip(t *testing.T) {
	spec, err := parsurf.NewSpec(
		parsurf.WithModel(parsurf.NewPtCOModel(parsurf.DefaultPtCORates())),
		parsurf.WithLattice(20, 20),
		parsurf.WithEngine("rsm"),
		parsurf.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"text"`) {
		t.Fatalf("inline model did not serialize as text: %s", data)
	}
	back, err := parsurf.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprintSpec(t, back, 200), fingerprintSpec(t, spec, 200); got != want {
		t.Fatalf("inline-model round trip not exact: %v vs %v", got, want)
	}
}

// Decoding rejects unknown names with registry-aware messages.
func TestSpecDecodeErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantSubstr string
	}{
		{"unknown engine", `{"engine": {"name": "nope"}}`, "registered:"},
		{"unknown field", `{"engine": {"name": "ziff"}, "bogus": true}`, "bogus"},
		{"unknown partition", `{"model": {"name": "zgb"}, "engine": {"name": "pndca", "partition": "hexagons"}}`, "partition builder"},
		{"unknown preset", `{"model": {"name": "zgb"}, "engine": {"name": "rsm"}, "init": {"preset": "stripes"}}`, "unknown preset"},
		{"unknown model", `{"model": {"name": "legomodel"}, "engine": {"name": "rsm"}}`, "model preset"},
		{"unknown model param", `{"model": {"name": "zgb", "params": {"kXX": 1}}, "engine": {"name": "rsm"}}`, "kXX"},
		{"model for model-free", `{"model": {"name": "zgb"}, "engine": {"name": "ziff"}}`, "model-free"},
		{"option not accepted", `{"model": {"name": "zgb"}, "engine": {"name": "rsm", "L": 5}}`, "does not accept"},
		{"bad fractions", `{"model": {"name": "zgb"}, "engine": {"name": "rsm"}, "init": {"preset": "random", "fractions": [1]}}`, "fractions"},
	}
	for _, tc := range cases {
		_, err := parsurf.ParseSpec([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSubstr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSubstr)
		}
	}
}

// NewSpec rejects exactly what ParseSpec rejects: option values no
// engine can run are spec errors, whichever entry point builds the spec.
func TestSpecInvalidValuesRejected(t *testing.T) {
	zgb := parsurf.WithModelPreset("zgb", nil)
	cases := []struct {
		name string
		opts []parsurf.SessionOption // nil: not expressible through NewSpec
		doc  string                  // "": not expressible in JSON
		want string
	}{
		{"y above 1",
			[]parsurf.SessionOption{parsurf.WithEngine("ziff", parsurf.COFraction(1.5))},
			`{"engine": {"name": "ziff", "y": 1.5}}`, "outside [0,1]"},
		{"y negative",
			[]parsurf.SessionOption{parsurf.WithEngine("ziff", parsurf.COFraction(-0.1))},
			`{"engine": {"name": "ziff", "y": -0.1}}`, "outside [0,1]"},
		{"y NaN",
			[]parsurf.SessionOption{parsurf.WithEngine("ziff", parsurf.COFraction(math.NaN()))},
			"", "outside [0,1]"},
		{"L negative",
			[]parsurf.SessionOption{zgb, parsurf.WithEngine("lpndca", parsurf.Trials(-1))},
			`{"model": {"name": "zgb"}, "engine": {"name": "lpndca", "L": -1}}`, "L must be"},
		{"unknown strategy",
			[]parsurf.SessionOption{zgb, parsurf.WithEngine("lpndca", parsurf.StrategyName("bogus"))},
			`{"model": {"name": "zgb"}, "engine": {"name": "lpndca", "strategy": "bogus"}}`, "strategy"},
		{"one block size unset",
			[]parsurf.SessionOption{zgb, parsurf.WithEngine("bca", parsurf.BlockSize(4, 0))},
			`{"model": {"name": "zgb"}, "engine": {"name": "bca", "blockW": 4}}`, "block sizes"},
		{"negative block sizes",
			[]parsurf.SessionOption{zgb, parsurf.WithEngine("bca", parsurf.BlockSize(-2, -2))},
			`{"model": {"name": "zgb"}, "engine": {"name": "bca", "blockW": -2, "blockH": -2}}`, "block sizes"},
		{"unknown partition",
			[]parsurf.SessionOption{zgb, parsurf.WithEngine("pndca", parsurf.PartitionNamed("hexagons"))},
			`{"model": {"name": "zgb"}, "engine": {"name": "pndca", "partition": "hexagons"}}`, "partition builder"},
		{"model for model-free engine",
			[]parsurf.SessionOption{parsurf.WithModelPreset("ptco", nil), parsurf.WithEngine("ziff")},
			`{"model": {"name": "ptco"}, "engine": {"name": "ziff"}}`, "model-free"},
		{"NaN init fraction",
			[]parsurf.SessionOption{zgb, parsurf.WithEngine("rsm"), parsurf.WithInit(parsurf.RandomInit(math.NaN(), 1))},
			"", "finite"},
		{"non-positive lattice",
			[]parsurf.SessionOption{zgb, parsurf.WithEngine("rsm"), parsurf.WithLattice(0, 5)},
			`{"model": {"name": "zgb"}, "lattice": {"l0": 0, "l1": 5}, "engine": {"name": "rsm"}}`, "positive"},
	}
	for _, tc := range cases {
		if tc.opts != nil {
			if _, err := parsurf.NewSpec(tc.opts...); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: NewSpec error %v, want one mentioning %q", tc.name, err, tc.want)
			}
		}
		if tc.doc != "" {
			if _, err := parsurf.ParseSpec([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: ParseSpec error %v, want one mentioning %q", tc.name, err, tc.want)
			}
		}
	}
}

// The spec accessors expose what the ensemble and service layers need
// without building a session.
func TestSpecAccessors(t *testing.T) {
	spec := representativeSpec(t, "lpndca")
	if spec.EngineName() != "lpndca" {
		t.Errorf("EngineName %q", spec.EngineName())
	}
	if spec.Seed() != goldentrace.Seed {
		t.Errorf("Seed %d", spec.Seed())
	}
	if l0, l1 := spec.Extents(); l0 != goldentrace.Side || l1 != goldentrace.Side {
		t.Errorf("Extents %dx%d", l0, l1)
	}
}
