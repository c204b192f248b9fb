// Package fenwick implements a Fenwick (binary indexed) tree over
// float64 weights with O(log n) point updates, prefix sums, and weighted
// sampling by cumulative weight. It is the substrate for the VSSM/direct
// DMC method (selecting the next reaction with probability proportional
// to its rate) and for rate-weighted chunk selection in L-PNDCA.
package fenwick

import (
	"fmt"
	"math"
)

// Tree is a Fenwick tree over n float64 weights, indexed 0..n-1.
type Tree struct {
	tree []float64 // 1-based internal array
	n    int
	adds uint64 // signed Adds since the last Rebuild/Reset
}

// RebuildEvery is the default number of signed Adds after which the
// accumulated floating-point drift of interleaved positive and negative
// updates warrants rebuilding the tree from true leaf values (see
// NeedsRebuild). The bound is conservative: each Add can lose at most
// one ulp per touched node, so ~10⁶ ops keep the summed error orders of
// magnitude below any sampling threshold while making rebuilds
// (O(n) each) vanishingly rare.
const RebuildEvery = 1 << 20

// Adds returns the number of Add calls since the last Rebuild or Reset.
func (t *Tree) Adds() uint64 { return t.adds }

// NeedsRebuild reports whether at least RebuildEvery signed Adds have
// accumulated since the last Rebuild/Reset. Long-running owners that
// know their true leaf values (VSSM's rate·count products, the chunk
// trackers' enabled-rate sums) call Rebuild when this trips.
func (t *Tree) NeedsRebuild() bool { return t.adds >= RebuildEvery }

// Rebuild re-initialises every node from the true leaf values supplied
// by the callback, in O(n), clearing all accumulated floating-point
// drift and resetting the Add counter.
func (t *Tree) Rebuild(leaf func(i int) float64) {
	for i := 0; i < t.n; i++ {
		t.tree[i+1] = leaf(i)
	}
	for i := 1; i <= t.n; i++ {
		parent := i + (i & -i)
		if parent <= t.n {
			t.tree[parent] += t.tree[i]
		}
	}
	t.adds = 0
}

// New returns a tree of n zero weights.
func New(n int) *Tree {
	if n < 0 {
		panic("fenwick: negative size")
	}
	return &Tree{tree: make([]float64, n+1), n: n}
}

// Len returns the number of slots.
func (t *Tree) Len() int { return t.n }

// Add adds delta to the weight at index i.
func (t *Tree) Add(i int, delta float64) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("fenwick: index %d out of range [0,%d)", i, t.n))
	}
	for j := i + 1; j <= t.n; j += j & -j {
		t.tree[j] += delta
	}
	t.adds++
}

// PrefixSum returns the sum of weights in [0, i) — i.e. of the first i
// slots. PrefixSum(0) is 0; PrefixSum(Len()) is the total.
func (t *Tree) PrefixSum(i int) float64 {
	if i < 0 || i > t.n {
		panic(fmt.Sprintf("fenwick: prefix %d out of range [0,%d]", i, t.n))
	}
	sum := 0.0
	for j := i; j > 0; j -= j & -j {
		sum += t.tree[j]
	}
	return sum
}

// Total returns the sum of all weights.
func (t *Tree) Total() float64 { return t.PrefixSum(t.n) }

// Get returns the weight at index i.
func (t *Tree) Get(i int) float64 {
	return t.PrefixSum(i+1) - t.PrefixSum(i)
}

// Set sets the weight at index i to w.
func (t *Tree) Set(i int, w float64) {
	t.Add(i, w-t.Get(i))
}

// Search returns the smallest index i such that the cumulative weight
// through slot i exceeds target, i.e. the slot a uniform draw
// target ∈ [0, Total()) lands in under weighted sampling. If the target
// is at or beyond the total (possible through floating-point drift), the
// last slot with positive weight is returned.
func (t *Tree) Search(target float64) int {
	if t.n == 0 {
		panic("fenwick: Search on empty tree")
	}
	idx := 0
	// Highest power of two ≤ n.
	bit := 1
	for bit<<1 <= t.n {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := idx + bit
		if next <= t.n && t.tree[next] <= target {
			idx = next
			target -= t.tree[next]
		}
	}
	if idx >= t.n {
		// Clamp for target ≥ Total: find the last positive-weight slot.
		for i := t.n - 1; i >= 0; i-- {
			if t.Get(i) > 0 {
				return i
			}
		}
		return t.n - 1
	}
	return idx
}

// Reset zeroes all weights and the Add counter.
func (t *Tree) Reset() {
	for i := range t.tree {
		t.tree[i] = 0
	}
	t.adds = 0
}

// State appends the raw internal node array (including the unused
// 0th slot) to dst and returns it together with the Add counter.
// Together with Restore it round-trips the tree bit-exactly — a
// rebuild from true leaf values would clear the accumulated
// floating-point drift and so change subsequent weighted draws, which
// checkpoint/resume must not do.
func (t *Tree) State(dst []float64) ([]float64, uint64) {
	return append(dst, t.tree...), t.adds
}

// driftTolerance bounds, as a share of the largest total the weights
// can reach, how far floating-point drift can move a leaf. Each of at
// most RebuildEvery Adds rounds every node it touches by at most half
// an ulp of that total, and a leaf is read as the difference of two
// prefix sums of at most 64 nodes each, so drift stays within
// 128·2²⁰·2⁻⁵³ = 2⁻²⁶ ≈ 1.5e-8; the tolerance leaves a wide margin.
const driftTolerance = 1e-6

// Restore overwrites the internal nodes and Add counter with a state
// captured by State. The node slice must match the tree's size, every
// node must be finite and the unused 0th slot zero, and every restored
// weight must lie within drift of leaf(i), the true value its owner
// derives, where bound is the largest total the weights can reach. A
// rejected state leaves the tree unusable until Reset or Rebuild.
func (t *Tree) Restore(nodes []float64, adds uint64, leaf func(i int) float64, bound float64) error {
	if len(nodes) != t.n+1 {
		return fmt.Errorf("fenwick: restoring %d nodes into a tree of %d", len(nodes), t.n+1)
	}
	for i, v := range nodes {
		if math.IsNaN(v) || math.IsInf(v, 0) || (i == 0 && v != 0) {
			return fmt.Errorf("fenwick: restored node %d is %v", i, v)
		}
	}
	copy(t.tree, nodes)
	t.adds = adds
	tol := driftTolerance * bound
	for i := 0; i < t.n; i++ {
		if got, want := t.Get(i), leaf(i); !(math.Abs(got-want) <= tol) {
			return fmt.Errorf("fenwick: restored weight %d is %v, want %v within %v", i, got, want, tol)
		}
	}
	return nil
}
