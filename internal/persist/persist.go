// Package persist provides compact binary checkpointing of simulation
// state: which engine produced it, the spec it came from, the lattice
// dimensions, the full configuration, the random source, the step
// count, the simulated clock, and an opaque engine-private payload.
// Long oscillation runs (hours of 100×100 DMC) can be stopped and
// resumed exactly.
//
// Format v3 (little-endian):
//
//	magic    "PSRF"            4 bytes
//	version  uint32            currently 3
//	engine   uint32 + bytes    registry engine name (may be empty)
//	spec     uint32 + bytes    session spec hash (may be empty)
//	species  uint32            species count bounding the cell block
//	l0, l1   uint32, uint32    lattice extents
//	steps    uint64            completed engine steps
//	time     float64           simulated time
//	rng      4 × uint64        xoshiro256** state
//	cells    l0·l1 bytes       species values, each < species
//	payload  uint32 + bytes    engine-private state (Engine.SaveState)
//
// The version names this layout only. A checkpoint's trajectory
// generation and payload layout are its engine's epoch
// (registry.Spec.Epoch), which the spec hash folds in: resuming refuses
// a hash other than the resuming spec's.
//
// Load validates every cell byte against the species count, refuses
// implausible extents and oversized variable blocks, and rejects any
// trailing bytes after the payload block — a truncated or padded file
// is an error, never a silently wrong configuration.
package persist

import (
	"fmt"
	"io"

	"parsurf/internal/lattice"
	"parsurf/internal/rng"
)

const (
	magic   = "PSRF"
	version = 3

	maxNameLen = 64
	maxHashLen = 128
	maxSpecies = 256
	maxPayload = 1 << 26
)

// Checkpoint is a saved simulation state.
type Checkpoint struct {
	// Engine is the registry name of the engine that produced the
	// checkpoint; empty for engine-agnostic snapshots.
	Engine string
	// SpecHash fingerprints the session spec the run was built from
	// (SessionSpec.Hash); empty when unknown.
	SpecHash string
	// NumSpecies bounds the species values in the configuration.
	NumSpecies int
	// Steps is the engine's completed step count.
	Steps uint64
	// Time is the simulated time.
	Time float64
	// Config is the full lattice configuration.
	Config *lattice.Config
	// RNG is the random source; Load returns a restored copy that
	// continues the saved sequence exactly.
	RNG *rng.Source
	// Payload is the engine-private state written by SaveState.
	Payload []byte
}

// Write serializes the checkpoint in the current format.
func Write(w io.Writer, c *Checkpoint) error {
	if len(c.Engine) > maxNameLen {
		return fmt.Errorf("persist: engine name %d bytes exceeds %d", len(c.Engine), maxNameLen)
	}
	if len(c.SpecHash) > maxHashLen {
		return fmt.Errorf("persist: spec hash %d bytes exceeds %d", len(c.SpecHash), maxHashLen)
	}
	if c.NumSpecies < 1 || c.NumSpecies > maxSpecies {
		return fmt.Errorf("persist: species count %d outside [1,%d]", c.NumSpecies, maxSpecies)
	}
	if len(c.Payload) > maxPayload {
		return fmt.Errorf("persist: payload %d bytes exceeds %d", len(c.Payload), maxPayload)
	}
	e := NewWriter(w)
	e.Bytes([]byte(magic))
	e.U32(version)
	e.Block([]byte(c.Engine))
	e.Block([]byte(c.SpecHash))
	e.U32(uint32(c.NumSpecies))
	lat := c.Config.Lattice()
	e.U32(uint32(lat.L0))
	e.U32(uint32(lat.L1))
	e.U64(c.Steps)
	e.F64(c.Time)
	state := c.RNG.State()
	for _, word := range state {
		e.U64(word)
	}
	cells := c.Config.Cells()
	buf := make([]byte, len(cells))
	for i, sp := range cells {
		if int(sp) >= c.NumSpecies {
			return fmt.Errorf("persist: cell %d holds species %d, model has %d", i, sp, c.NumSpecies)
		}
		buf[i] = byte(sp)
	}
	e.Bytes(buf)
	e.Block(c.Payload)
	return e.Err()
}

// Load reads a checkpoint written by Write. The stream must
// end exactly after the payload block; trailing bytes are rejected.
func Load(r io.Reader) (*Checkpoint, error) {
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("persist: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("persist: bad magic %q", head)
	}
	d := NewReader(r)
	ver := d.U32()
	if d.Err() == nil && ver != version {
		return nil, fmt.Errorf("persist: unsupported version %d", ver)
	}
	name := d.Block(maxNameLen)
	hash := d.Block(maxHashLen)
	nspecies := d.U32()
	if d.Err() == nil && (nspecies < 1 || nspecies > maxSpecies) {
		return nil, fmt.Errorf("persist: implausible species count %d", nspecies)
	}
	l0, l1 := d.U32(), d.U32()
	if d.Err() == nil && (l0 == 0 || l1 == 0 || uint64(l0)*uint64(l1) > 1<<31) {
		return nil, fmt.Errorf("persist: implausible lattice %dx%d", l0, l1)
	}
	steps := d.U64()
	simTime := d.F64()
	var state [4]uint64
	for i := range state {
		state[i] = d.U64()
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("persist: reading header: %w", err)
	}
	// The cell block is read and validated before the lattice and
	// configuration are allocated: the claimed extents (up to 2^31
	// sites) are untrusted until the stream actually delivers that many
	// bytes, so allocation must track data read, not the claim.
	buf := d.ReadChunked(int(l0) * int(l1))
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("persist: reading cells: %w", err)
	}
	for i, b := range buf {
		if uint32(b) >= nspecies {
			return nil, fmt.Errorf("persist: cell %d holds species %d, model has %d", i, b, nspecies)
		}
	}
	lat := lattice.New(int(l0), int(l1))
	cfg := lattice.NewConfig(lat)
	cells := cfg.Cells()
	for i, b := range buf {
		cells[i] = lattice.Species(b)
	}
	payload := d.Block(maxPayload)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("persist: reading payload: %w", err)
	}
	// The format is self-delimiting; anything after the payload block
	// means the file was corrupted or concatenated.
	var trailer [1]byte
	if _, err := io.ReadFull(r, trailer[:]); err == nil {
		return nil, fmt.Errorf("persist: trailing bytes after payload")
	} else if err != io.EOF {
		return nil, fmt.Errorf("persist: checking for trailing bytes: %w", err)
	}
	src := rng.New(0)
	src.Restore(state)
	return &Checkpoint{
		Engine:     string(name),
		SpecHash:   string(hash),
		NumSpecies: int(nspecies),
		Steps:      steps,
		Time:       simTime,
		Config:     cfg,
		RNG:        src,
		Payload:    payload,
	}, nil
}
