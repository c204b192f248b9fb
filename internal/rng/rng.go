// Package rng provides a small, fast, deterministic pseudo-random number
// generator with splittable streams, tailored for parallel kinetic Monte
// Carlo simulation.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64 so that arbitrary (including zero or nearly-equal) seeds
// produce well-mixed, independent states. Streams derived with Split are
// statistically independent for any practical simulation length, which
// makes parallel chunk updates reproducible regardless of goroutine
// scheduling: every chunk owns its own stream.
//
// All methods are deterministic functions of the seed and the call
// sequence. A Source is not safe for concurrent use; derive one stream per
// goroutine with Split instead of sharing.
package rng

import "math/bits"

// Source is a xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the given state and returns the next output.
// It is used only for seeding and stream derivation.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Any seed value,
// including 0, yields a valid generator.
func New(seed uint64) *Source {
	var src Source
	src.reseed(seed)
	return &src
}

// Seed re-initialises the source from the given seed, exactly as New
// does, without allocating. It makes a zero-value (or exhausted) Source
// usable in place — the replica pools use it to rewind a per-slot
// stream instead of constructing a fresh Source per replica.
func (s *Source) Seed(seed uint64) { s.reseed(seed) }

func (s *Source) reseed(seed uint64) {
	state := seed
	s.s0 = splitmix64(&state)
	s.s1 = splitmix64(&state)
	s.s2 = splitmix64(&state)
	s.s3 = splitmix64(&state)
	// The all-zero state is the only invalid one; splitmix64 cannot
	// produce four zero outputs in a row, but keep the check for clarity.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s3 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// FillUint64 fills dst with the next len(dst) outputs of the generator,
// exactly as len(dst) successive Uint64 calls would. Keeping the state
// words in locals for the whole batch removes the per-call state
// loads/stores from the hot loops that consume randomness in bulk.
func (s *Source) FillUint64(dst []uint64) {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// FillExp fills dst with exponentially distributed values of the given
// rate, consuming one Uint64 output per element: the same values and
// the same final state as len(dst) Exp calls. Raw outputs come from
// FillUint64 in stack-buffer chunks so the generator core exists in
// exactly two forms (Uint64 and FillUint64). It panics if rate <= 0.
func (s *Source) FillExp(dst []float64, rate float64) {
	if rate <= 0 {
		panic("rng: FillExp with non-positive rate")
	}
	var buf [128]uint64
	for len(dst) > 0 {
		n := min(len(dst), len(buf))
		s.FillUint64(buf[:n])
		for i, u := range buf[:n] {
			x, ok := expFast(u)
			if !ok {
				x = expSlow(u)
			}
			dst[i] = x / rate
		}
		dst = dst[n:]
	}
}

// Split derives an independent child stream identified by id. Two children
// of the same parent with different ids, and children of different
// parents, are independent streams. The parent is not advanced, so Split
// is deterministic: the same (parent state, id) always yields the same
// child.
func (s *Source) Split(id uint64) *Source {
	child := new(Source)
	s.SplitInto(child, id)
	return child
}

// SplitInto derives the child stream identified by id into dst,
// overwriting dst's state — the allocation-free form of Split, for hot
// loops that derive a stream per site or per step (dst is typically a
// stack variable or a reused struct field). The derivation is
// identical to Split's: the same (parent state, id) always yields the
// same child, and the parent is not advanced.
func (s *Source) SplitInto(dst *Source, id uint64) {
	// Mix the parent state and the id through splitmix64 to seed the
	// child. Using the raw state (not an output draw) keeps the parent
	// sequence untouched.
	state := s.s0 ^ rotl(s.s2, 13) ^ (id * 0xd1342543de82ef95)
	dst.s0 = splitmix64(&state)
	dst.s1 = splitmix64(&state)
	dst.s2 = splitmix64(&state)
	dst.s3 = splitmix64(&state)
	if dst.s0|dst.s1|dst.s2|dst.s3 == 0 {
		dst.s3 = 1
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits, the standard conversion.
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method, which avoids modulo bias. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Lemire rejection: redraw while the 128-bit product's low half is
	// below the bias threshold (-n)%n. The threshold is below n, so a
	// low half of at least n is accepted without computing it.
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate), consuming exactly one Uint64 output (see expFast). It
// panics if rate <= 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := s.Uint64()
	if x, ok := expFast(u); ok {
		return x / rate
	}
	return expSlow(u) / rate
}

// Perm fills p with a uniform random permutation of 0..len(p)-1
// (Fisher–Yates).
func (s *Source) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes the first n elements using the given swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// State returns the four state words, for checkpointing.
func (s *Source) State() [4]uint64 { return [4]uint64{s.s0, s.s1, s.s2, s.s3} }

// Restore sets the state words, the inverse of State.
func (s *Source) Restore(state [4]uint64) {
	s.s0, s.s1, s.s2, s.s3 = state[0], state[1], state[2], state[3]
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s3 = 1
	}
}
