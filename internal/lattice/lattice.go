// Package lattice models the surface of the paper's §2: a two-dimensional
// periodic lattice Ω of N = L0×L1 sites, each holding a value from a
// finite species domain D. It provides site indexing, translation by
// offsets with periodic wrap-around, standard neighbourhood shapes, and
// the mutable configuration (a function Ω → D).
package lattice

import "fmt"

// Species is an element of the domain D of particle types. By convention
// species 0 is the vacant site "*"; model packages define the rest.
type Species uint8

// Vec is a lattice offset (dx, dy). Reaction-type patterns are expressed
// as offsets relative to the site the reaction is applied at, which gives
// the translation invariance required of neighbourhoods in the paper.
type Vec struct {
	DX, DY int
}

// Add returns the component-wise sum of two offsets.
func (v Vec) Add(w Vec) Vec { return Vec{v.DX + w.DX, v.DY + w.DY} }

// Neg returns the negated offset.
func (v Vec) Neg() Vec { return Vec{-v.DX, -v.DY} }

func (v Vec) String() string { return fmt.Sprintf("(%d,%d)", v.DX, v.DY) }

// Lattice is the geometry Ω: an L0×L1 torus. Sites are identified by a
// dense index in [0, N), laid out row-major: index = y*L0 + x.
type Lattice struct {
	L0, L1 int // width (x extent) and height (y extent)
	n      int
}

// New returns an L0×L1 periodic lattice. Both extents must be positive.
func New(l0, l1 int) *Lattice {
	if l0 <= 0 || l1 <= 0 {
		panic(fmt.Sprintf("lattice: non-positive extent %dx%d", l0, l1))
	}
	return &Lattice{L0: l0, L1: l1, n: l0 * l1}
}

// NewSquare returns an L×L lattice.
func NewSquare(l int) *Lattice { return New(l, l) }

// N returns the number of sites.
func (l *Lattice) N() int { return l.n }

// SameShape reports whether two lattices have identical extents. Site
// indexing and translation tables depend only on the extents, so
// engines accept any configuration whose lattice has the compiled
// shape (restored checkpoints build fresh Lattice values).
func (l *Lattice) SameShape(o *Lattice) bool {
	return o != nil && l.L0 == o.L0 && l.L1 == o.L1
}

// Index returns the dense site index for coordinates (x, y), which are
// wrapped periodically.
func (l *Lattice) Index(x, y int) int {
	x = mod(x, l.L0)
	y = mod(y, l.L1)
	return y*l.L0 + x
}

// Coords returns the (x, y) coordinates of site index s.
func (l *Lattice) Coords(s int) (x, y int) {
	return s % l.L0, s / l.L0
}

// Translate returns the site reached from s by offset v, with periodic
// wrap-around. This realises Nb(s+t) = Nb(s)+t: neighbourhoods look the
// same from every site.
func (l *Lattice) Translate(s int, v Vec) int {
	x, y := l.Coords(s)
	return l.Index(x+v.DX, y+v.DY)
}

// FillTranslate sets dst[s] = Translate(s, v) for every site s: the
// whole translation table of offset v. It takes one modulus per row
// rather than four divisions per site, and the sites of a row translate
// to one contiguous run that wraps once at L0. dst must have length N,
// and N must fit in an int32.
func (l *Lattice) FillTranslate(dst []int32, v Vec) {
	if len(dst) != l.n {
		panic(fmt.Sprintf("lattice: FillTranslate table of %d entries for %d sites", len(dst), l.n))
	}
	dx := mod(v.DX, l.L0)
	split := l.L0 - dx // x < split maps to x+dx; the rest wraps to x+dx-L0
	for y := 0; y < l.L1; y++ {
		row := dst[y*l.L0 : (y+1)*l.L0]
		t := int32(mod(y+v.DY, l.L1)*l.L0 + dx)
		for x := range row[:split] {
			row[x] = t + int32(x)
		}
		t -= int32(l.L0)
		for x := split; x < len(row); x++ {
			row[x] = t + int32(x)
		}
	}
}

// mod returns a modulo b with a result in [0, b), also for negative a.
func mod(a, b int) int {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// Axes4 are the four unit directions E, N, W, S in the orientation order
// Table I of the paper uses (indices 0..3).
func Axes4() []Vec {
	return []Vec{{1, 0}, {0, 1}, {-1, 0}, {0, -1}}
}

// Config is a system state: a complete assignment of species to sites
// (a function Ω → D), stored densely.
type Config struct {
	lat   *Lattice
	cells []Species
}

// NewConfig returns the all-zero (vacant) configuration on lat.
func NewConfig(lat *Lattice) *Config {
	return &Config{lat: lat, cells: make([]Species, lat.N())}
}

// Lattice returns the geometry this configuration lives on.
func (c *Config) Lattice() *Lattice { return c.lat }

// Get returns the species at site s.
func (c *Config) Get(s int) Species { return c.cells[s] }

// Set assigns species sp to site s.
func (c *Config) Set(s int, sp Species) { c.cells[s] = sp }

// GetXY returns the species at coordinates (x, y) (periodic).
func (c *Config) GetXY(x, y int) Species { return c.cells[c.lat.Index(x, y)] }

// SetXY assigns species sp at coordinates (x, y) (periodic).
func (c *Config) SetXY(x, y int, sp Species) { c.cells[c.lat.Index(x, y)] = sp }

// Fill sets every site to species sp.
func (c *Config) Fill(sp Species) {
	for i := range c.cells {
		c.cells[i] = sp
	}
}

// Cells exposes the raw state slice. Callers must not resize it; it is
// shared with the configuration. Hot loops in the simulation engines use
// it to avoid bounds-checked accessor calls.
func (c *Config) Cells() []Species { return c.cells }

// Clone returns a deep copy of the configuration.
func (c *Config) Clone() *Config {
	out := &Config{lat: c.lat, cells: make([]Species, len(c.cells))}
	copy(out.cells, c.cells)
	return out
}

// CopyFrom overwrites this configuration with the contents of other,
// which must live on a lattice of identical size.
func (c *Config) CopyFrom(other *Config) {
	if len(c.cells) != len(other.cells) {
		panic("lattice: CopyFrom size mismatch")
	}
	copy(c.cells, other.cells)
}

// Equal reports whether two configurations have identical state.
func (c *Config) Equal(other *Config) bool {
	if len(c.cells) != len(other.cells) {
		return false
	}
	for i, v := range c.cells {
		if other.cells[i] != v {
			return false
		}
	}
	return true
}

// Count returns the number of sites holding species sp.
func (c *Config) Count(sp Species) int {
	n := 0
	for _, v := range c.cells {
		if v == sp {
			n++
		}
	}
	return n
}

// Coverage returns Count(sp)/N, the fractional coverage the paper's
// figures plot.
func (c *Config) Coverage(sp Species) float64 {
	return float64(c.Count(sp)) / float64(c.lat.N())
}

// CountAll returns a histogram of species occupancy indexed by species
// value, sized to hold the largest species present.
func (c *Config) CountAll(numSpecies int) []int {
	return c.CountInto(make([]int, numSpecies))
}

// CountInto tallies species occupancy into counts (zeroing it first)
// and returns it, grown only when a species value exceeds its length —
// the allocation-free form of CountAll for samplers that observe the
// same configuration repeatedly (the ensemble replica runner calls it
// once per grid point).
func (c *Config) CountInto(counts []int) []int {
	for i := range counts {
		counts[i] = 0
	}
	for _, v := range c.cells {
		if int(v) >= len(counts) {
			grown := make([]int, int(v)+1)
			copy(grown, counts)
			counts = grown
		}
		counts[v]++
	}
	return counts
}

// Randomize assigns each site independently a species drawn from the
// given weights (weights need not be normalised). rand is any function
// returning uniform values in [0,1).
func (c *Config) Randomize(weights []float64, rand func() float64) {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("lattice: Randomize with non-positive total weight")
	}
	for i := range c.cells {
		u := rand() * total
		acc := 0.0
		for sp, w := range weights {
			acc += w
			if u < acc {
				c.cells[i] = Species(sp)
				break
			}
		}
	}
}

// String renders the configuration as a compact character grid, one row
// per line, using digits for species values (useful in tests and small
// examples).
func (c *Config) String() string {
	buf := make([]byte, 0, (c.lat.L0+1)*c.lat.L1)
	for y := 0; y < c.lat.L1; y++ {
		for x := 0; x < c.lat.L0; x++ {
			sp := c.GetXY(x, y)
			if sp < 10 {
				buf = append(buf, byte('0'+sp))
			} else {
				buf = append(buf, byte('a'+sp-10))
			}
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}
