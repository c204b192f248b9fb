package parsurf

// SpecAtEpoch returns a copy of sp as a build whose registry gave sp's
// engine the given trajectory epoch would build it: same document and
// spec bytes, Hash over the other epoch. Tests use it to show what an
// epoch bump retires and what it leaves alone without editing the
// registry.
func SpecAtEpoch(sp *SessionSpec, epoch uint32) *SessionSpec {
	c := *sp
	c.epoch = epoch
	return &c
}
