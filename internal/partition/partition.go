// Package partition implements the partitions of §5 of the paper: a
// partition P is a collection of disjoint chunks P_i covering the
// lattice, chosen such that reactions applied at distinct sites of the
// same chunk never touch each other's neighbourhoods (the non-overlap
// rule). All sites of one chunk can then be updated simultaneously.
//
// The package provides the concrete partitions the paper uses — the
// five-chunk von Neumann colouring of Fig. 4, the two-chunk checkerboard
// of Fig. 6, block partitions for the BCA, and the degenerate single-
// chunk (m=1) and singleton (m=N) partitions that reduce L-PNDCA to RSM
// — plus a generic modular-colouring search for arbitrary models, and
// verifiers for both forms of the non-overlap rule.
package partition

import (
	"fmt"
	"sort"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
)

// Partition is a disjoint cover of the lattice by chunks.
type Partition struct {
	Lat    *lattice.Lattice
	Chunks [][]int32
	// chunkOf maps a site to its chunk index.
	chunkOf []int32
}

// FromChunks validates that the chunks are disjoint and cover the
// lattice, and returns the partition.
func FromChunks(lat *lattice.Lattice, chunks [][]int32) (*Partition, error) {
	p := &Partition{Lat: lat, Chunks: chunks, chunkOf: make([]int32, lat.N())}
	for i := range p.chunkOf {
		p.chunkOf[i] = -1
	}
	total := 0
	for ci, chunk := range chunks {
		if len(chunk) == 0 {
			return nil, fmt.Errorf("partition: chunk %d is empty", ci)
		}
		for _, s := range chunk {
			if s < 0 || int(s) >= lat.N() {
				return nil, fmt.Errorf("partition: site %d out of range", s)
			}
			if p.chunkOf[s] != -1 {
				return nil, fmt.Errorf("partition: site %d in chunks %d and %d", s, p.chunkOf[s], ci)
			}
			p.chunkOf[s] = int32(ci)
		}
		total += len(chunk)
	}
	if total != lat.N() {
		return nil, fmt.Errorf("partition: chunks cover %d of %d sites", total, lat.N())
	}
	return p, nil
}

// NumChunks returns |P|, the number of chunks (the paper's m).
func (p *Partition) NumChunks() int { return len(p.Chunks) }

// ChunkOf returns the index of the chunk containing site s.
func (p *Partition) ChunkOf(s int) int { return int(p.chunkOf[s]) }

// Sizes returns the chunk sizes |P_i|.
func (p *Partition) Sizes() []int {
	out := make([]int, len(p.Chunks))
	for i, c := range p.Chunks {
		out[i] = len(c)
	}
	return out
}

// fromColoring builds a partition from a site → colour map with the
// given number of colours. Sites are visited in index order (y-major),
// so each chunk lists its members in ascending site order.
func fromColoring(lat *lattice.Lattice, colours int, colourOf func(x, y int) int) (*Partition, error) {
	chunks := make([][]int32, colours)
	for c := range chunks {
		chunks[c] = make([]int32, 0, lat.N()/colours+1)
	}
	s := int32(0)
	for y := 0; y < lat.L1; y++ {
		for x := 0; x < lat.L0; x++ {
			c := colourOf(x, y)
			if c < 0 || c >= colours {
				return nil, fmt.Errorf("partition: colour %d out of range", c)
			}
			chunks[c] = append(chunks[c], s)
			s++
		}
	}
	return FromChunks(lat, chunks)
}

// SingleChunk returns the m=1 partition: one chunk containing the whole
// lattice. With L = N, L-PNDCA over this partition is exactly RSM.
func SingleChunk(lat *lattice.Lattice) *Partition {
	chunk := make([]int32, lat.N())
	for i := range chunk {
		chunk[i] = int32(i)
	}
	p, err := FromChunks(lat, [][]int32{chunk})
	if err != nil {
		panic(err) // cannot happen
	}
	return p
}

// Singletons returns the m=N partition: one chunk per site. With L = 1,
// L-PNDCA over this partition is exactly RSM.
func Singletons(lat *lattice.Lattice) *Partition {
	chunks := make([][]int32, lat.N())
	for i := range chunks {
		chunks[i] = []int32{int32(i)}
	}
	p, err := FromChunks(lat, chunks)
	if err != nil {
		panic(err)
	}
	return p
}

// VonNeumann5 returns the five-chunk colouring of Fig. 4 of the paper:
// colour(x, y) = (x + 3y) mod 5, the optimal partition for models whose
// reaction patterns fit in the von Neumann cross (such as the
// CO-oxidation model of Table I). Both lattice extents must be multiples
// of five for the colouring to wrap consistently.
func VonNeumann5(lat *lattice.Lattice) (*Partition, error) {
	if lat.L0%5 != 0 || lat.L1%5 != 0 {
		return nil, fmt.Errorf("partition: VonNeumann5 needs extents divisible by 5, got %dx%d", lat.L0, lat.L1)
	}
	return fromColoring(lat, 5, func(x, y int) int { return (x + 3*y) % 5 })
}

// Checkerboard returns the two-chunk partition of Fig. 6:
// colour(x, y) = (x + y) mod 2. It satisfies the per-type non-overlap
// rule for any model whose patterns fit in a two-site domino (any single
// orientation at a time), which is what the type-partitioned algorithm
// of §5 needs. Both extents must be even.
func Checkerboard(lat *lattice.Lattice) (*Partition, error) {
	if lat.L0%2 != 0 || lat.L1%2 != 0 {
		return nil, fmt.Errorf("partition: Checkerboard needs even extents, got %dx%d", lat.L0, lat.L1)
	}
	return fromColoring(lat, 2, func(x, y int) int { return (x + y) % 2 })
}

// Blocks returns the block partition used by Block Cellular Automata:
// the lattice is tiled by bw×bh blocks with the tiling origin shifted by
// (ox, oy); each block is one chunk. Block chunks contain adjacent sites
// and therefore do not satisfy the non-overlap rule — the BCA instead
// confines reactions to block interiors. Extents must be divisible by
// the block dimensions.
func Blocks(lat *lattice.Lattice, bw, bh, ox, oy int) (*Partition, error) {
	if bw <= 0 || bh <= 0 {
		return nil, fmt.Errorf("partition: non-positive block size %dx%d", bw, bh)
	}
	if lat.L0%bw != 0 || lat.L1%bh != 0 {
		return nil, fmt.Errorf("partition: %dx%d lattice not tileable by %dx%d blocks", lat.L0, lat.L1, bw, bh)
	}
	bx := lat.L0 / bw
	colours := bx * (lat.L1 / bh)
	return fromColoring(lat, colours, func(x, y int) int {
		// Shift the tiling origin; the site at (x, y) belongs to the
		// block containing (x-ox, y-oy).
		xx := ((x-ox)%lat.L0 + lat.L0) % lat.L0
		yy := ((y-oy)%lat.L1 + lat.L1) % lat.L1
		return (yy/bh)*bx + xx/bw
	})
}

// conflictOffsets returns the set Δ of non-zero offsets δ such that the
// combined neighbourhoods of the model's reaction types at two sites s
// and s+δ can intersect: Δ = {o1 − o2 : o1, o2 ∈ O} \ {0} where O is the
// union of all pattern offsets.
func conflictOffsets(m *model.Model) []lattice.Vec {
	offs := make(map[lattice.Vec]bool)
	for i := range m.Types {
		for _, tr := range m.Types[i].Triples {
			offs[tr.Off] = true
		}
	}
	deltas := make(map[lattice.Vec]bool)
	for a := range offs {
		for b := range offs {
			d := lattice.Vec{DX: a.DX - b.DX, DY: a.DY - b.DY}
			if d != (lattice.Vec{}) {
				deltas[d] = true
			}
		}
	}
	return sortedVecs(deltas)
}

// sortedVecs flattens a Vec set into a (DX, DY)-ordered slice: callers
// iterate the result, so a stable order keeps search outcomes and
// conflict error messages identical run to run.
func sortedVecs(set map[lattice.Vec]bool) []lattice.Vec {
	out := make([]lattice.Vec, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DX != out[j].DX {
			return out[i].DX < out[j].DX
		}
		return out[i].DY < out[j].DY
	})
	return out
}

// ModularColoring searches for the smallest modular colouring
// colour(x, y) = (x + r·y) mod k, k ≤ maxK, that satisfies the
// all-types non-overlap rule for the model on the given lattice: no
// conflict offset δ of the model may satisfy δx + r·δy ≡ 0 (mod k), and
// the colouring must wrap (k | L0 and k | r·L1). It returns the
// partition, or an error if no such colouring exists within maxK.
//
// For the CO-oxidation model this finds the k=5 colouring of Fig. 4; for
// single-site models it finds... k=2 (conflicts only at distance-1
// offsets); the search generalises the paper's hand-constructed
// partitions.
func ModularColoring(m *model.Model, lat *lattice.Lattice, maxK int) (*Partition, error) {
	deltas := conflictOffsets(m)
	if len(deltas) == 0 {
		// Single-site patterns only: every site is independent; one
		// chunk suffices.
		return SingleChunk(lat), nil
	}
	for k := 2; k <= maxK; k++ {
		if lat.L0%k != 0 {
			continue
		}
		for r := 0; r < k; r++ {
			if (r*lat.L1)%k != 0 {
				continue
			}
			ok := true
			for _, d := range deltas {
				v := (d.DX + r*d.DY) % k
				if v < 0 {
					v += k
				}
				if v == 0 {
					ok = false
					break
				}
			}
			if ok {
				return fromColoring(lat, k, func(x, y int) int { return (x + r*y) % k })
			}
		}
	}
	return nil, fmt.Errorf("partition: no modular colouring with k <= %d for this model on %dx%d", maxK, lat.L0, lat.L1)
}

// VerifyNonOverlap checks the all-types non-overlap rule of §5: for all
// distinct sites s, t of the same chunk and all reaction types Rt, Rt',
// Nb_Rt(s) ∩ Nb_Rt'(t) = ∅. Because the rule quantifies over all type
// pairs it is equivalent to: the unions U(s) of all pattern sites at s
// are pairwise disjoint within a chunk. Returns nil if the rule holds.
func VerifyNonOverlap(p *Partition, m *model.Model) error {
	offs := make(map[lattice.Vec]bool)
	for i := range m.Types {
		for _, tr := range m.Types[i].Triples {
			offs[tr.Off] = true
		}
	}
	return verifyDisjointUnions(p, mapKeys(offs))
}

// VerifyNonOverlapType checks the per-type non-overlap rule used by the
// type-partitioned algorithm: for the single reaction type rt,
// Nb_rt(s) ∩ Nb_rt(t) = ∅ for distinct s, t in the same chunk.
func VerifyNonOverlapType(p *Partition, rt *model.ReactionType) error {
	offs := make([]lattice.Vec, len(rt.Triples))
	for i, tr := range rt.Triples {
		offs[i] = tr.Off
	}
	return verifyDisjointUnions(p, offs)
}

func mapKeys(m map[lattice.Vec]bool) []lattice.Vec {
	return sortedVecs(m)
}

// verifyDisjointUnions stamps every site of U(s) = s + offs for each
// chunk member s and reports a conflict when a site is stamped twice by
// different members of the same chunk.
func verifyDisjointUnions(p *Partition, offs []lattice.Vec) error {
	lat := p.Lat
	owner := make([]int32, lat.N())
	for ci, chunk := range p.Chunks {
		if len(chunk) == 1 {
			continue // a single member cannot conflict with itself
		}
		for i := range owner {
			owner[i] = -1
		}
		for _, s := range chunk {
			for _, o := range offs {
				site := lat.Translate(int(s), o)
				if owner[site] != -1 && owner[site] != s {
					return fmt.Errorf(
						"partition: chunk %d members %d and %d overlap at site %d",
						ci, owner[site], s, site)
				}
				owner[site] = s
			}
		}
	}
	return nil
}
