package zipf

import "math"

// Zipf samples from the bounded Zipfian distribution over ranks {1, ..., N}
// with P(rank = x) ∝ x^(-α), for any exponent α > 0 (including α ≤ 1,
// which the paper's α = 0.8 setting requires).
//
// The sampler uses rejection-inversion for monotone discrete distributions
// (Hörmann & Derflinger 1996): O(1) expected time per sample and, beside
// a head table of at most HeadRanks ranks, O(1) memory, so a u = 2^29
// domain costs nothing to set up. This matters because the simulated
// mappers draw billions of scaled-down samples.
type Zipf struct {
	n        int64
	exponent float64

	hIntegralX1 float64
	hIntegralN  float64
	s           float64

	hCache float64 // memoized generalized harmonic number, for PMF

	// head[k-1] is the closed interval of draws m that Sample answers
	// with rank k without inverting; guide[m>>guideShift] is the first
	// index whose interval can hold an m of that bucket. See buildHead.
	head  []span
	guide []uint16
}

type span struct{ lo, hi uint64 }

// The head table. Most draws land on a few ranks (the first HeadRanks
// take 84% of them at α = 1.1, u = 2^20; the table answers 83%), and a
// profile of dataset generation put 60% of its time in the Exp and
// Log1p of hIntegralInverse. A table of the draws whose rank is certain
// answers them with a lookup: BenchmarkGenerateZipf (two x86-64 cores)
// takes 200-290 ms against 580-600 ms inverting every draw.
const (
	// HeadRanks bounds the ranks the table covers, so that its error
	// bound below stays far under headDelta for the paper's skews.
	HeadRanks = 1 << 14
	// headDelta is the margin in x kept clear of the two points where
	// the exact path's decision changes: x = k - s (the first test) and
	// x = k + ½ (the rounding to a rank).
	headDelta = 1e-6
	// headGuard shrinks each interval by this many draws on each side,
	// covering the rounding of buildHead's own arithmetic (< 20 draws).
	headGuard = 1 << 12
	// guideShift leaves m's top 16 bits to index the guide.
	guideShift = 53 - 16
	// unitRoundoff is 2^-53, the relative error of one float64 rounding.
	unitRoundoff = 1.0 / (1 << 53)
)

// NewZipf returns a sampler over {1, ..., n} with a finite exponent
// alpha > 0.
func NewZipf(n int64, alpha float64) *Zipf {
	if n < 1 {
		panic("zipf: domain size must be >= 1")
	}
	if !(alpha > 0) || math.IsInf(alpha, 1) {
		panic("zipf: exponent must be finite and > 0")
	}
	z := &Zipf{n: n, exponent: alpha}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	z.s = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	z.buildHead()
	return z
}

// buildHead fills the head table and its guide.
//
// Why it is exact. Sample draws m = Uint64()>>11 once per round and
// inverts u(m) = hIntegralN + m/2^53·(hIntegralX1 − hIntegralN) to x;
// the round accepts rank k at its first test iff int64(x+½) = k and
// k − x ≤ s. In exact arithmetic x(m) = H⁻¹(u(m)) falls as m grows, so
// the m with x(m) in [k − min(s, ½) + δ, k + ½ − δ] form an interval,
// which buildHead computes from H and shrinks by headGuard on each side
// to cover its own rounding. The computed x differs from x(m) by the
// roundings of u and of t = u·(1 − α) (together ≤ 3ε·U with ε = 2^-53
// and U = |hIntegralN| + |hIntegralX1 − hIntegralN|, which H⁻¹
// stretches by dx/du = x^α) and by those of Log1p, Exp and the products
// in hIntegralInverse (each within 1 ulp in Go: a relative error of a
// few ε on log x, so ≤ x·(|log x| + 1)·4ε). A rank enters the table
// only while 16 times that sum, room for functions a few ulp off, is
// below δ/2; for the paper's skews (α 0.8-1.4, u ≤ 2^29) at
// k ≤ HeadRanks the sum is under 2·10⁻⁹. So for every m in k's interval
// the computed x lies in (k − min(s, ½), k + ½) with room to spare, the
// exact path would accept k on its first test, and returning k consumes
// the same one draw: every rank, every RNG state and every dataset
// stays bit for bit what inverting each draw gives. A draw outside the
// intervals runs that path unchanged, from the same m.
func (z *Zipf) buildHead() {
	lower := math.Min(z.s, 0.5)
	d := z.hIntegralX1 - z.hIntegralN
	roundoff := 3 * unitRoundoff * (math.Abs(z.hIntegralN) + math.Abs(d))
	// mOf is the draw whose u is H(x); d < 0, so larger x, smaller m.
	mOf := func(x float64) float64 { return (z.hIntegral(x) - z.hIntegralN) / d * (1 << 53) }
	z.head = make([]span, 0, min(z.n, HeadRanks))
	for k := 1.0; k <= float64(min(z.n, HeadRanks)); k++ {
		slope := math.Pow(k+1, z.exponent)
		if 16*(slope*roundoff+(k+1)*(math.Log(k+1)+1)*4*unitRoundoff) > headDelta/2 {
			break
		}
		lo := math.Max(math.Ceil(mOf(k+0.5-headDelta)+headGuard), 0)
		hi := math.Min(math.Floor(mOf(k-lower+headDelta)-headGuard), 1<<53-1)
		if !(lo <= hi) {
			break // later ranks are rarer still
		}
		z.head = append(z.head, span{uint64(lo), uint64(hi)})
	}
	z.guide = make([]uint16, 1<<(53-guideShift))
	i := 0
	for b := len(z.guide) - 1; b >= 0; b-- {
		last := uint64(b+1)<<guideShift - 1
		for i < len(z.head) && z.head[i].lo > last {
			i++
		}
		z.guide[b] = uint16(i)
	}
}

// Sample draws one rank in [1, N].
func (z *Zipf) Sample(r *RNG) int64 {
	for {
		m := r.Uint64() >> 11
		if k := z.fromHead(m); k != 0 {
			return k
		}
		if k, ok := z.invert(m); ok {
			return k
		}
	}
}

// fromHead returns the rank the head table holds for draw m, or 0.
func (z *Zipf) fromHead(m uint64) int64 {
	i := int(z.guide[m>>guideShift])
	for i < len(z.head) && z.head[i].lo > m {
		i++
	}
	if i < len(z.head) && z.head[i].hi >= m {
		return int64(i) + 1
	}
	return 0
}

// invert is one round of rejection-inversion from the draw m: the rank
// and whether the round accepts it.
func (z *Zipf) invert(m uint64) (int64, bool) {
	u := z.hIntegralN + float64(m)/(1<<53)*(z.hIntegralX1-z.hIntegralN)
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
	return k, float64(k)-x <= z.s || u >= z.hIntegral(float64(k)+0.5)-z.h(float64(k))
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
