package parsurf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"

	"parsurf/internal/persist"
	"parsurf/internal/rng"
)

// Hash fingerprints the spec: the hex SHA-256 of its engine's
// trajectory epoch (registry.Spec.Epoch) and its canonical JSON form,
// the one generation stamp job content hashes, checkpoint headers and
// fleet shard results carry. Every spec serializes (NewSpec and
// ParseSpec reject one that does not), so the hash is never empty.
func (sp *SessionSpec) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "epoch=%d\n", sp.epoch)
	h.Write(sp.data)
	return hex.EncodeToString(h.Sum(nil))
}

// Checkpoint writes the session's complete state — engine name, spec
// hash, step count, clock, random-source state, configuration and the
// engine-private payload — in the persist format. Taken at a step
// boundary (which is the only place callers can observe a session), the
// snapshot is exact: no engine buffers draws ahead of its source, so
// the raw source state is in sync after each whole Step and a
// ResumeSession continues the trajectory bit for bit.
func (s *Session) Checkpoint(w io.Writer) error {
	var payload bytes.Buffer
	if err := s.eng.SaveState(&payload); err != nil {
		return fmt.Errorf("parsurf: saving %s engine state: %w", s.eng.Name(), err)
	}
	return persist.Write(w, &persist.Checkpoint{
		Engine:     s.eng.Name(),
		SpecHash:   s.spec.Hash(),
		NumSpecies: s.NumSpecies(),
		Steps:      s.eng.Steps(),
		Time:       s.eng.Time(),
		Config:     s.cfg,
		RNG:        s.src,
		Payload:    payload.Bytes(),
	})
}

// ResumeSession builds a session from the spec and restores the
// checkpointed state into it, so the next Step continues the
// interrupted run exactly where Checkpoint left it. The checkpoint must
// come from the same spec: engine name, lattice extents, species count
// and the spec hash are all checked (the hash only when the checkpoint
// carries one).
func ResumeSession(spec *SessionSpec, r io.Reader) (*Session, error) {
	cp, err := persist.Load(r)
	if err != nil {
		return nil, err
	}
	return resumeSession(spec, cp)
}

// resumeSession restores a decoded checkpoint into a fresh session
// built from sp. The order matters: the checkpointed cells are copied
// into the configuration first, Reset then re-derives every
// cells-dependent structure from them, LoadState overwrites the
// history-dependent remainder, and the raw source state is restored
// last, in place (the engine holds the session's source pointer), so
// nothing later in the sequence can advance it. The restored clock
// must be finite and non-negative, and it and the step count must
// equal the header's: Checkpoint writes both from the same engine, so
// any difference is a corrupt payload or header.
func resumeSession(sp *SessionSpec, cp *persist.Checkpoint) (*Session, error) {
	name := sp.EngineName()
	l0, l1 := sp.Extents()
	if cp.Engine != "" && cp.Engine != name {
		return nil, fmt.Errorf("parsurf: checkpoint is from engine %q, spec builds %q", cp.Engine, name)
	}
	if h := sp.Hash(); cp.SpecHash != "" && h != cp.SpecHash {
		return nil, fmt.Errorf("parsurf: checkpoint spec hash %s.. does not match this spec (%s..)", cp.SpecHash[:min(8, len(cp.SpecHash))], h[:8])
	}
	lat := cp.Config.Lattice()
	if lat.L0 != l0 || lat.L1 != l1 {
		return nil, fmt.Errorf("parsurf: checkpoint lattice %dx%d, spec has %dx%d", lat.L0, lat.L1, l0, l1)
	}
	if cp.NumSpecies != sp.NumSpecies() {
		return nil, fmt.Errorf("parsurf: checkpoint has %d species, spec's model has %d", cp.NumSpecies, sp.NumSpecies())
	}
	s, err := sp.build(rng.New(sp.Seed()))
	if err != nil {
		return nil, err
	}
	s.cfg.CopyFrom(cp.Config)
	s.eng.Reset(s.cfg, s.src)
	pr := bytes.NewReader(cp.Payload)
	if err := s.eng.LoadState(pr); err != nil {
		return nil, fmt.Errorf("parsurf: restoring %s engine state: %w", name, err)
	}
	if pr.Len() != 0 {
		return nil, fmt.Errorf("parsurf: %d trailing bytes in %s engine payload", pr.Len(), name)
	}
	t := s.eng.Time()
	if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return nil, fmt.Errorf("parsurf: restored %s clock %v is not a finite non-negative time", name, t)
	}
	if math.Float64bits(t) != math.Float64bits(cp.Time) {
		return nil, fmt.Errorf("parsurf: restored %s clock %v, checkpoint header says %v", name, t, cp.Time)
	}
	if n := s.eng.Steps(); n != cp.Steps {
		return nil, fmt.Errorf("parsurf: restored %s step count %d, checkpoint header says %d", name, n, cp.Steps)
	}
	s.src.Restore(cp.RNG.State())
	return s, nil
}
