// Package zipf provides the random machinery behind the paper's synthetic
// workloads: a fast deterministic RNG, a bounded Zipfian(α, u) sampler that
// supports all skews used in the evaluation (α ∈ {0.8, 1.1, 1.4} — note
// α ≤ 1 is outside math/rand's Zipf domain), and a bijective key-space
// permutation so that frequency rank is decorrelated from key value.
package zipf

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). It is not safe for concurrent use;
// each mapper/task derives its own stream with Fork.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 seeding, as recommended by the xoshiro authors.
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state (cannot happen with SplitMix64, but cheap).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Fork derives an independent deterministic stream for a sub-task. Streams
// from distinct ids are decorrelated by re-seeding through SplitMix64.
func (r *RNG) Fork(id uint64) *RNG {
	return NewRNG(r.Uint64() ^ (id * 0x9e3779b97f4a7c15) ^ 0x2545f4914f6cdd1d)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Int63n returns a uniform int64 in [0, n). n must be > 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("zipf: Int63n with n <= 0")
	}
	// A rejection loop on the top 63 bits: v is accepted iff it is below
	// limit = 2^63 - 2^63 mod n, the largest multiple of n that fits. Since
	// limit > 2^63 - n, every v below 2^63 - n is accepted without the
	// division that computes limit; only the n values above pay for it.
	// The accept decisions, and so the draws consumed, are the same.
	maxv := uint64(n)
	for {
		v := r.Uint64() >> 1
		if v < 1<<63-maxv || v < 1<<63-(1<<63)%maxv {
			return int64(v % maxv)
		}
	}
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm fills a permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := int(r.Int63n(int64(i + 1)))
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// NormFloat64 returns a standard normal variate (Box–Muller; adequate for
// test assertions, not in any hot path).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}
