package rng

import "math/bits"

// batchSize is the maximum number of raw outputs a Batch prefetches per
// refill. One refill amortises the generator's state loads/stores over
// up to 256 draws while staying small enough to live in L1.
const batchSize = 256

// Batch is a buffered reader over a Source for hot loops that consume
// randomness in bulk (RSM's trial loop draws site, type and waiting
// time per trial). It prefetches raw Uint64 outputs with FillUint64 and
// derives uniforms, bounded integers and exponentials from the buffer
// using exactly the Source algorithms, so a Batch consumes the
// underlying stream in precisely the order the equivalent direct Source
// calls would — trajectories stay bit-identical for fixed seeds.
//
// Prefetching is bounded by reservations: Reserve(k) declares that at
// least k further draws are certain to be consumed (RSM reserves its
// per-step minimum of trials × draws-per-trial), and a refill never
// takes more than the outstanding reservation from the Source. A draw
// demanded with no reservation outstanding is fetched alone. The Source
// therefore never runs ahead of what is actually consumed by the end of
// each reserved window — after a whole engine step the buffer is empty
// and the Source state equals the sequential-consumption state, which
// keeps persist-style checkpoints of the raw Source exact.
type Batch struct {
	src      *Source
	buf      [batchSize]uint64
	i, n     int // unconsumed window buf[i:n]
	reserved int // guaranteed future draws not yet prefetched
}

// NewBatch returns a buffered reader over src. While the Batch holds
// prefetched draws the Source must not be used directly; outside
// reserved windows the buffer is empty and the Source is in sync.
func NewBatch(src *Source) *Batch {
	return &Batch{src: src}
}

// Reset redirects the batch to a fresh source, discarding any
// prefetched draws and outstanding reservations. After Reset the batch
// behaves exactly like NewBatch(src) — engine Reset uses it to rewind
// the RSM trial loop without reallocating the buffer.
func (b *Batch) Reset(src *Source) {
	b.src = src
	b.i, b.n, b.reserved = 0, 0, 0
}

// Reserve declares that at least k further draws will certainly be
// consumed, licensing prefetch up to that amount. Reservations
// accumulate; over-consumption beyond the reserved amount is always
// allowed (it just prefetches less efficiently).
func (b *Batch) Reserve(k int) {
	if k > 0 {
		b.reserved += k
	}
}

func (b *Batch) refill() {
	k := b.reserved
	if k > batchSize {
		k = batchSize
	}
	if k < 1 {
		k = 1 // unreserved demand: the draw is consumed immediately
	}
	b.src.FillUint64(b.buf[:k])
	b.i, b.n = 0, k
	b.reserved -= k
	if b.reserved < 0 {
		b.reserved = 0
	}
}

// Uint64 returns the next raw output.
func (b *Batch) Uint64() uint64 {
	if b.i == b.n {
		b.refill()
	}
	u := b.buf[b.i]
	b.i++
	return u
}

// Float64 returns a uniform float64 in [0, 1).
func (b *Batch) Float64() float64 {
	return float64(b.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (b *Batch) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(b.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) with the same
// Lemire-rejection consumption pattern as Source.Uint64n.
func (b *Batch) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	if n&(n-1) == 0 {
		return b.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(b.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(b.Uint64(), n)
		}
	}
	return hi
}

// Exp returns an exponentially distributed value with the given rate,
// consuming one output like Source.Exp. It panics if rate <= 0.
func (b *Batch) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := b.Uint64()
	if x, ok := expFast(u); ok {
		return x / rate
	}
	return expSlow(u) / rate
}

// Buffered returns the number of prefetched draws not yet consumed
// (zero whenever every reserved window has been fully consumed).
func (b *Batch) Buffered() int { return b.n - b.i }
