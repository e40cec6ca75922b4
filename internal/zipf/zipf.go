package zipf

import "math"

// Zipf samples from the bounded Zipfian distribution over ranks {1, ..., N}
// with P(rank = x) ∝ x^(-α), for any exponent α > 0 (including α ≤ 1,
// which the paper's α = 0.8 setting requires).
//
// The sampler uses rejection-inversion for monotone discrete distributions
// (Hörmann & Derflinger 1996): O(1) memory and O(1) expected time per
// sample, so a u = 2^29 domain costs nothing to set up. This matters
// because the simulated mappers draw billions of scaled-down samples.
type Zipf struct {
	n        int64
	exponent float64

	hIntegralX1 float64
	hIntegralN  float64
	s           float64

	hCache float64 // memoized generalized harmonic number, for PMF
}

// NewZipf returns a sampler over {1, ..., n} with exponent alpha > 0.
func NewZipf(n int64, alpha float64) *Zipf {
	if n < 1 {
		panic("zipf: domain size must be >= 1")
	}
	if alpha <= 0 {
		panic("zipf: exponent must be > 0")
	}
	z := &Zipf{n: n, exponent: alpha}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	z.s = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	return z
}

// Sample draws one rank in [1, N].
func (z *Zipf) Sample(r *RNG) int64 {
	for {
		u := z.hIntegralN + r.Float64()*(z.hIntegralX1-z.hIntegralN)
		// u is uniform in (hIntegral(n+0.5), hIntegral(1.5)-1].
		x := z.hIntegralInverse(u)
		k := int64(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		// Accept k if it lies in the "hat" region; the first test is the
		// cheap common case for the high-probability small ranks.
		if float64(k)-x <= z.s || u >= z.hIntegral(float64(k)+0.5)-z.h(float64(k)) {
			return k
		}
	}
}

// hIntegral is H(x) = ∫ h, with h(x) = x^(-exponent); continuous in the
// exponent (the α = 1 log case is the limit handled by helper2).
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2((1-z.exponent)*logX) * logX
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(-z.exponent * math.Log(x))
}

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * (1 - z.exponent)
	if t < -1 {
		// Round-off guard: t could dip just below the mathematical
		// lower bound -1.
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x, continuously extended at 0.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x/2 + x*x/3 - x*x*x/4
}

// helper2 computes expm1(x)/x, continuously extended at 0.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x/2 + x*x/6 + x*x*x/24
}

// PMF returns the exact probability of rank x (1-based). O(n) on first call
// because it materializes the normalizing constant; cached afterwards.
// Intended for tests and small-domain verification only.
func (z *Zipf) PMF(x int64) float64 {
	if x < 1 || x > z.n {
		return 0
	}
	return math.Pow(float64(x), -z.exponent) / z.harmonic()
}

func (z *Zipf) harmonic() float64 {
	if z.hCache == 0 {
		var h float64
		for i := int64(1); i <= z.n; i++ {
			h += math.Pow(float64(i), -z.exponent)
		}
		z.hCache = h
	}
	return z.hCache
}
