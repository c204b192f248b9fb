package fleet

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func sampleResult() *ShardResult {
	return &ShardResult{
		Variant:  1,
		Lo:       4,
		Hi:       6,
		SpecHash: strings.Repeat("5e", 32),
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
	// Older layouts are refused.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[4:], 1)
	cases["version1"] = bad
	// Version 2 blobs have no spec hash block.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[4:], 2)
	cases["version 2"] = bad
	// A spec hash block longer than any hash (offset 28: after the
	// seven fixed header words).
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[28:], maxWireHash+1)
	cases["hash length"] = bad
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

// FuzzDecodeShardResult: whatever the bytes, decodeShardResult either
// errors or returns a result that re-encodes to exactly those bytes,
// and it never allocates far beyond the blob's own size, so a header
// claiming more replicas, species or points than the body carries
// costs nothing.
func FuzzDecodeShardResult(f *testing.F) {
	good, err := encodeShardResult(sampleResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-5])
	inflated := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(inflated[12:], 0)     // lo
	binary.LittleEndian.PutUint32(inflated[16:], 1<<20) // hi
	f.Add(inflated)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var res *ShardResult
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err = decodeShardResult(data)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+1<<16); n > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), n, limit)
		}
		if err != nil {
			return
		}
		again, err := encodeShardResult(res)
		if err != nil {
			t.Fatalf("accepted result does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(again))
		}
	})
}
