package rng

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// zigTables rebuilds the ziggurat tables from the Marsaglia–Tsang
// recursion at 53-bit resolution. Every layer has area
// v = (zigR+1)·e^(-zigR), the area of the base strip plus its tail.
// Walking down from x_255 = zigR, each layer's left edge x_{i-1} solves
// e^(-x_{i-1}) = v/x_i + e^(-x_i), and zigK[i] = 2⁵³·x_{i-1}/x_i marks
// the part of layer i that lies fully under the density.
func zigTables() (k [256]uint64, w, f [256]float64) {
	const m = 1 << 53
	r := zigR
	v := (r + 1) * math.Exp(-r)
	k[0] = uint64(r / (r + 1) * m)
	w[0] = (r + 1) / m
	f[0] = 1
	w[255] = r / m
	f[255] = math.Exp(-r)
	x := r
	for i := 254; i >= 1; i-- {
		xn := -math.Log(v/x + math.Exp(-x))
		k[i+1] = uint64(xn / x * m)
		x = xn
		f[i] = math.Exp(-x)
		w[i] = x / m
	}
	return
}

// The literal tables match the recursion, the layers have equal areas
// (which also checks zigR: the top layer closes only for the right
// edge), widths grow towards the base, and a fast-path draw never
// leaves its layer's fully covered part.
func TestZigguratTables(t *testing.T) {
	const m = 1 << 53
	// math.Log and math.Exp are not correctly rounded and differ by an
	// ulp between GOARCHes; the literals are what every platform draws
	// from, so the rebuild need only agree to far below any effect on
	// the distribution.
	const tol = 1e-12
	k, w, f := zigTables()
	for i := range k {
		if d := math.Abs(float64(k[i]) - float64(zigK[i])); d > tol*m {
			t.Errorf("zigK[%d] = %d, recursion gives %d", i, zigK[i], k[i])
		}
		if math.Abs(w[i]-zigW[i]) > tol*zigW[i] {
			t.Errorf("zigW[%d] = %v, recursion gives %v", i, zigW[i], w[i])
		}
		if math.Abs(f[i]-zigF[i]) > tol*zigF[i] {
			t.Errorf("zigF[%d] = %v, recursion gives %v", i, zigF[i], f[i])
		}
	}

	v := (zigR + 1) * math.Exp(-zigR)
	if a := zigW[0] * m * zigF[255]; math.Abs(a-v) > tol*v {
		t.Errorf("base layer area %v, want %v", a, v)
	}
	for i := 1; i < 256; i++ {
		if a := zigW[i] * m * (zigF[i-1] - zigF[i]); math.Abs(a-v) > tol*v {
			t.Errorf("layer %d area %v, want %v", i, a, v)
		}
		if i > 1 && zigW[i] <= zigW[i-1] {
			t.Errorf("layer %d width %v not above layer %d's %v", i, zigW[i], i-1, zigW[i-1])
		}
		if zigF[i] >= zigF[i-1] {
			t.Errorf("zigF[%d] = %v not below zigF[%d] = %v", i, zigF[i], i-1, zigF[i-1])
		}
	}
	if zigW[255]*m != zigR || zigW[0] <= zigW[255] {
		t.Errorf("base widths %v, %v; want zigR+1 above zigR = %v", zigW[0]*m, zigW[255]*m, zigR)
	}
	if zigK[1] != 0 {
		t.Errorf("zigK[1] = %d; the top layer has no fully covered part", zigK[1])
	}
	// The largest fast-path abscissa of each layer does not pass the
	// edge where the density drops below the layer's top.
	if x := float64(zigK[0]-1) * zigW[0]; x > zigR {
		t.Errorf("layer 0 fast path reaches %v, beyond zigR", x)
	}
	for i := 2; i < 256; i++ {
		if x, edge := float64(zigK[i]-1)*zigW[i], zigW[i-1]*m; x > edge {
			t.Errorf("layer %d fast path reaches %v, beyond x_%d = %v", i, x, i-1, edge)
		}
	}
}

// expDraws returns n sorted Exp(1) variates of a fixed-seed stream.
func expDraws(n int) []float64 {
	s := New(20261019)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.Exp(1)
	}
	slices.Sort(xs)
	return xs
}

// Kolmogorov–Smirnov against Exp(1) at n = 10⁶. The seed is fixed, so
// D is a fixed number; the bound is the 5% critical value 1.36/√n.
func TestExpKolmogorovSmirnov(t *testing.T) {
	const n = 1_000_000
	xs := expDraws(n)
	d := 0.0
	for i, x := range xs {
		cdf := -math.Expm1(-x)
		d = max(d, cdf-float64(i)/n, float64(i+1)/n-cdf)
	}
	if crit := 1.36 / math.Sqrt(n); d > crit {
		t.Fatalf("KS D = %.5f, above the 5%% critical value %.5f", d, crit)
	}
	t.Logf("KS D = %.5f at n = %d", d, n)
}

// The tail beyond the base strip, drawn on the slow path, holds its
// share e^(-zigR) of the mass: the count lies within four binomial
// standard deviations of n·e^(-zigR).
func TestExpTailFraction(t *testing.T) {
	const n = 1_000_000
	xs := expDraws(n)
	below, _ := slices.BinarySearch(xs, zigR)
	tail := n - below
	p := math.Exp(-zigR)
	mean, sd := n*p, math.Sqrt(n*p*(1-p))
	if math.Abs(float64(tail)-mean) > 4*sd {
		t.Fatalf("%d of %d draws beyond %v, want %.0f ± %.0f", tail, n, zigR, mean, 4*sd)
	}
	if xs[n-1] <= zigR {
		t.Fatalf("largest draw %v never reached the tail", xs[n-1])
	}
}

// forceWord returns a state whose next Uint64 output is u. The
// xoshiro256** scrambler rotl(s1·5, 7)·9 is a bijection of s1, so
// inverting it pins the output; the other words are arbitrary.
func forceWord(u uint64) [4]uint64 {
	inv := func(a uint64) uint64 { // inverse of an odd a modulo 2⁶⁴
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	s1 := bits.RotateLeft64(u*inv(9), -7) * inv(5)
	return [4]uint64{0x9e3779b97f4a7c15, s1, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb}
}

// Words forced onto the tail and the wedge (accepted at once, and
// rejected into retries) leave Source.Exp and FillExp at exactly the
// state one Uint64 leaves: the slow path draws only from its child
// stream.
func TestExpSlowPathConsumesOneOutput(t *testing.T) {
	words := []uint64{zigK[0]<<11 | 0, (1<<53-1)<<11 | 0} // tail
	for _, i := range []uint64{1, 2, 17, 128, 254, 255} {
		for _, j := range []uint64{zigK[i], (zigK[i] + 1<<53) / 2, 1<<53 - 1} {
			words = append(words, j<<11|i) // wedge
		}
	}
	for _, u := range words {
		ref := new(Source)
		ref.Restore(forceWord(u))
		if got := ref.Uint64(); got != u {
			t.Fatalf("forced word %#x, got %#x", u, got)
		}
		after := ref.State()
		want := expSlow(u) / 2.5

		src := new(Source)
		src.Restore(forceWord(u))
		if got := src.Exp(2.5); got != want || src.State() != after {
			t.Errorf("word %#x: Source.Exp = %v, want %v; state moved %v", u, got, want, src.State() != after)
		}

		src.Restore(forceWord(u))
		dst := make([]float64, 1)
		if src.FillExp(dst, 2.5); dst[0] != want || src.State() != after {
			t.Errorf("word %#x: FillExp = %v, want %v", u, dst[0], want)
		}
	}
}
