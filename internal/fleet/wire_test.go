package fleet

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func sampleResult() *ShardResult {
	return &ShardResult{
		Variant: 1,
		Lo:      4,
		Hi:      6,
		Rows: [][][]float64{
			{{0.5, 0.25, 0.125}, {1e-300, 0, 3.14}},
			{{-1.5, 2.5, 4.5}, {0.1, 0.2, 0.3}},
		},
		Steps: []uint64{123456789, 42},
		Times: []float64{9.75, 10.0},
	}
}

// The wire codec round-trips payloads bit-exactly.
func TestWireRoundTrip(t *testing.T) {
	in := sampleResult()
	data, err := encodeShardResult(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeShardResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in %+v\nout %+v", in, out)
	}
}

// Malformed payloads decode to errors, never to silently-wrong data.
func TestWireRejectsMalformed(t *testing.T) {
	good, err := encodeShardResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": good[:len(good)-5],
		"header":    good[:12],
	}
	// Trailing garbage.
	cases["trailing"] = append(append([]byte(nil), good...), 0xFF)
	// Flipped magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	cases["magic"] = bad
	// Wrong version.
	bad = append([]byte(nil), good...)
	bad[4] ^= 0x01
	cases["version"] = bad
	// Version 1 blobs carry rows of the inversion clock sampler.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[4:], 1)
	cases["version1"] = bad
	// Absurd species claim (offset 20: after magic, version, variant,
	// lo, hi).
	bad = append([]byte(nil), good...)
	bad[20], bad[21] = 0xFF, 0xFF
	cases["species"] = bad
	// Inverted replica range.
	bad = append([]byte(nil), good...)
	bad[12], bad[16] = bad[16], bad[12] // swap lo and hi low bytes
	cases["range"] = bad

	for name, data := range cases {
		if _, err := decodeShardResult(data); err == nil {
			t.Errorf("%s payload decoded without error", name)
		}
	}
}

// The encoder refuses incoherent in-memory payloads.
func TestWireEncodeValidation(t *testing.T) {
	res := sampleResult()
	res.Steps = res.Steps[:1]
	if _, err := encodeShardResult(res); err == nil {
		t.Error("encoded a payload with missing steps")
	}
	res = sampleResult()
	res.Rows[1] = res.Rows[1][:1]
	if _, err := encodeShardResult(res); err == nil {
		t.Error("encoded a payload with ragged species rows")
	}
	res = sampleResult()
	res.Rows[1][0] = res.Rows[1][0][:2]
	if _, err := encodeShardResult(res); err == nil {
		t.Error("encoded a payload with ragged point rows")
	}
}

// Global shard ids split back into their parts and reject malformed
// tokens.
func TestGlobalShardID(t *testing.T) {
	g := GlobalShardID("job-3", "v0-0-8")
	if g != "job-3.v0-0-8" {
		t.Fatalf("global id %q", g)
	}
	jobID, shardID, err := SplitShardID(g)
	if err != nil || jobID != "job-3" || shardID != "v0-0-8" {
		t.Fatalf("split: %q %q %v", jobID, shardID, err)
	}
	for _, bad := range []string{"", "nodot", ".leading", "trailing."} {
		if _, _, err := SplitShardID(bad); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("SplitShardID(%q): %v, want malformed error", bad, err)
		}
	}
}
