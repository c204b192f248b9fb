// Shard result wire format: the binary payload a worker posts back for
// one completed (variant, replica-range) shard. The payload carries the
// raw per-replica sample rows — never pre-merged moments — so the
// coordinator commits each replica through the same index-ordered
// accumulator a single-node run uses and the merged Mean/Std come out
// bit-identical regardless of how the replica space was sharded. Floats
// travel as their exact bit patterns through the error-latching persist
// codec; lengths in the header are untrusted and bounded before any
// allocation grows to meet them. The header carries the worker's spec
// hash, so rows of another spec or engine epoch are never merged.

package fleet

import (
	"bytes"
	"fmt"
	"io"

	"parsurf/internal/persist"
)

const (
	// wireMagic / wireVersion stamp every shard result blob. The
	// version names the layout only (3 added the spec hash); the spec
	// hash, which folds in the engine's epoch, names the trajectories.
	wireMagic   = 0x50534c46 // "PSLF"
	wireVersion = 3
	// maxWireSpecies / maxWirePoints / maxWireReplicas / maxWireHash
	// bound the header claims of an untrusted blob.
	maxWireSpecies  = 256
	maxWirePoints   = 1 << 24
	maxWireReplicas = 1 << 20
	maxWireHash     = 64
)

// ShardResult is a decoded shard payload: the identity of the slice it
// covers, each replica's sample rows (indexed replica-Lo, each species ×
// grid points), and each replica's final engine counters (steps taken,
// simulated time reached) for progress accounting.
type ShardResult struct {
	Variant  int
	Lo, Hi   int
	SpecHash string // the worker's SessionSpec.Hash of the variant
	// Rows[k] is replica Lo+k's species × points sample matrix.
	Rows [][][]float64
	// Steps[k] and Times[k] are replica Lo+k's final engine step count
	// and simulated time.
	Steps []uint64
	Times []float64
}

// encodeShardResult serializes a shard payload.
func encodeShardResult(res *ShardResult) ([]byte, error) {
	n := res.Hi - res.Lo
	if n <= 0 || len(res.Rows) != n || len(res.Steps) != n || len(res.Times) != n {
		return nil, fmt.Errorf("fleet: shard [%d, %d) with %d rows, %d steps, %d times",
			res.Lo, res.Hi, len(res.Rows), len(res.Steps), len(res.Times))
	}
	species, points := 0, 0
	if len(res.Rows[0]) > 0 {
		species, points = len(res.Rows[0]), len(res.Rows[0][0])
	}
	var buf bytes.Buffer
	e := persist.NewWriter(&buf)
	e.U32(wireMagic)
	e.U32(wireVersion)
	e.U32(uint32(res.Variant))
	e.U32(uint32(res.Lo))
	e.U32(uint32(res.Hi))
	e.U32(uint32(species))
	e.U32(uint32(points))
	e.Block([]byte(res.SpecHash))
	for k := 0; k < n; k++ {
		if len(res.Rows[k]) != species {
			return nil, fmt.Errorf("fleet: replica %d has %d species rows, want %d", res.Lo+k, len(res.Rows[k]), species)
		}
		e.U64(res.Steps[k])
		e.F64(res.Times[k])
		for _, row := range res.Rows[k] {
			if len(row) != points {
				return nil, fmt.Errorf("fleet: replica %d row of %d points, want %d", res.Lo+k, len(row), points)
			}
			for _, x := range row {
				e.F64(x)
			}
		}
	}
	if err := e.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeShardResult parses an untrusted shard payload, validating every
// header claim before allocating to meet it and refusing trailing
// bytes.
func decodeShardResult(data []byte) (*ShardResult, error) {
	r := bytes.NewReader(data)
	d := persist.NewReader(r)
	if m := d.U32(); d.Err() == nil && m != wireMagic {
		d.Failf("fleet: shard result magic %#x, want %#x", m, wireMagic)
	}
	if v := d.U32(); d.Err() == nil && v != wireVersion {
		d.Failf("fleet: shard result version %d, want %d", v, wireVersion)
	}
	variant := d.U32()
	lo := d.U32()
	hi := d.U32()
	species := d.U32()
	points := d.U32()
	if d.Err() == nil {
		switch {
		case hi <= lo || hi-lo > maxWireReplicas:
			d.Failf("fleet: shard result covers replicas [%d, %d)", lo, hi)
		case species < 1 || species > maxWireSpecies:
			d.Failf("fleet: shard result carries %d species", species)
		case points < 1 || points > maxWirePoints:
			d.Failf("fleet: shard result carries %d grid points", points)
		}
	}
	hash := d.Block(maxWireHash)
	// The header is coherent; the remaining length is now fully
	// determined, so a short or padded body is caught before anything
	// is allocated to meet the claims.
	n := int(hi - lo)
	if need := uint64(n) * (16 + 8*uint64(species)*uint64(points)); d.Err() == nil && need != uint64(r.Len()) {
		d.Failf("fleet: shard result claims %d body bytes, %d remain", need, r.Len())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	res := &ShardResult{
		Variant:  int(variant),
		Lo:       int(lo),
		Hi:       int(hi),
		SpecHash: string(hash),
		Rows:     make([][][]float64, n),
		Steps:    make([]uint64, n),
		Times:    make([]float64, n),
	}
	for k := range n {
		res.Steps[k] = d.U64()
		res.Times[k] = d.F64()
		rows := make([][]float64, species)
		for sp := range rows {
			rows[sp] = make([]float64, points)
			for i := range rows[sp] {
				rows[sp][i] = d.F64()
			}
		}
		res.Rows[k] = rows
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// readAllLimit reads r to EOF, refusing bodies over limit bytes — the
// HTTP result upload guard.
func readAllLimit(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("fleet: payload exceeds %d bytes", limit)
	}
	return data, nil
}
