// Package sketch implements the linear sketch the paper's Send-Sketch
// baseline builds on: the Group-Count Sketch of Cormode, Garofalakis,
// Sacharidis [13], the state-of-the-art wavelet sketch the paper selects.
// It is linear, so per-split sketches merge at the reducer by addition.
package sketch

import "math/bits"

// Hashing: 4-wise independent polynomial hash over the Mersenne prime
// p = 2^61 - 1, the standard choice for CountSketch-style estimators
// (4-wise independence is required for the variance bounds on second
// moments).

const mersenne61 = (1 << 61) - 1

// mulmod61 returns a*b mod 2^61-1 for a, b < 2^61.
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi·2^64 + lo, and 2^64 ≡ 8 (mod 2^61-1).
	r := hi*8 + (lo & mersenne61) + (lo >> 61)
	for r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// polyHash is a degree-3 polynomial hash (4-wise independent family).
type polyHash struct {
	a [4]uint64
}

// newPolyHash draws coefficients from rng-like seeds (SplitMix64 expansion
// of the seed keeps the package dependency-free).
func newPolyHash(seed uint64) polyHash {
	var h polyHash
	s := seed
	for i := range h.a {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		h.a[i] = z % mersenne61
	}
	// Leading coefficient non-zero keeps the family 4-wise independent.
	if h.a[3] == 0 {
		h.a[3] = 1
	}
	return h
}

// eval returns the hash of x in [0, 2^61-1).
func (h polyHash) eval(x uint64) uint64 {
	x %= mersenne61
	r := h.a[3]
	r = mulmod61(r, x) + h.a[2]
	if r >= mersenne61 {
		r -= mersenne61
	}
	r = mulmod61(r, x) + h.a[1]
	if r >= mersenne61 {
		r -= mersenne61
	}
	r = mulmod61(r, x) + h.a[0]
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// bucket maps x into [0, n).
func (h polyHash) bucket(x uint64, n int) int {
	return int(h.eval(x) % uint64(n))
}

// sign maps x to ±1.
func (h polyHash) sign(x uint64) float64 {
	if h.eval(x)&1 == 0 {
		return 1
	}
	return -1
}
