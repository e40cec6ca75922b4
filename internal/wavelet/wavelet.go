// Package wavelet implements the Haar wavelet machinery of the paper:
// dense and sparse (frequency-vector) transforms, the O(|v| log u)-time /
// O(log u)-memory streaming transform the mappers use (Appendix A, citing
// Gilbert et al. [20]), best k-term selection, reconstruction, point and
// range-sum queries, SSE/energy accounting, and the 2D extension.
//
// # Indexing and normalization
//
// The key domain is [u] = {0, ..., u-1} (0-based; the paper is 1-based) and
// u must be a power of two. Coefficients are indexed 0-based as well:
//
//	w[0]            = <v, ψ1>,  ψ1 = (1,...,1)/√u        (overall average)
//	w[2^j + k]      = detail at tree level j covering the dyadic range
//	                  [k·u/2^j, (k+1)·u/2^j), j = 0..log2(u)-1
//
// All coefficients use the energy-preserving (orthonormal) normalization,
// so ‖v‖² = Σ w_i² exactly (Parseval), which the paper relies on when
// arguing that keeping the k largest-magnitude coefficients minimizes SSE.
package wavelet

import (
	"fmt"
	"math"
	"math/bits"
)

// Coef is a single wavelet coefficient: its index in [0, u) and its value
// under the orthonormal Haar basis.
type Coef struct {
	Index int64
	Value float64
}

// IsPowerOfTwo reports whether u is a positive power of two.
func IsPowerOfTwo(u int64) bool {
	return u > 0 && u&(u-1) == 0
}

// Log2 returns log2(u) for a power of two u.
func Log2(u int64) uint {
	if !IsPowerOfTwo(u) {
		panic(fmt.Sprintf("wavelet: domain %d is not a power of two", u))
	}
	var l uint
	for 1<<(l+1) <= u {
		l++
	}
	return l
}

// Transform computes all u Haar coefficients of the dense signal v.
// len(v) must be a power of two. O(u) time, O(u) space.
func Transform(v []float64) []float64 {
	u := int64(len(v))
	if !IsPowerOfTwo(u) {
		panic(fmt.Sprintf("wavelet: signal length %d is not a power of two", u))
	}
	logu := Log2(u)
	// sums holds running dyadic sums; we fold bottom-up. s starts as v.
	s := make([]float64, u)
	copy(s, v)
	w := make([]float64, u)
	// Level j detail coefficients are produced when ranges of length
	// u/2^j close. Work bottom-up: at step t (t = logu-1 ... 0) ranges of
	// length u/2^t merge pairwise from ranges of length u/2^(t+1).
	length := u // current number of partial sums
	for level := int(logu) - 1; level >= 0; level-- {
		half := length / 2
		scale := math.Sqrt(float64(u) / float64(int64(1)<<uint(level)))
		for k := int64(0); k < half; k++ {
			left, right := s[2*k], s[2*k+1]
			// Detail: (sumRight - sumLeft)/sqrt(u/2^level).
			w[int64(1)<<uint(level)+k] = (right - left) / scale
			s[k] = left + right
		}
		length = half
	}
	w[0] = s[0] / math.Sqrt(float64(u))
	return w
}

// Inverse reconstructs the dense signal from all u coefficients.
// O(u) time.
func Inverse(w []float64) []float64 {
	u := int64(len(w))
	if !IsPowerOfTwo(u) {
		panic(fmt.Sprintf("wavelet: coefficient length %d is not a power of two", u))
	}
	logu := Log2(u)
	s := make([]float64, u)
	s[0] = w[0] * math.Sqrt(float64(u))
	length := int64(1)
	for level := 0; level < int(logu); level++ {
		scale := math.Sqrt(float64(u) / float64(int64(1)<<uint(level)))
		// Expand each range sum into its two child sums using the detail.
		for k := length - 1; k >= 0; k-- {
			sum := s[k]
			diff := w[int64(1)<<uint(level)+k] * scale
			s[2*k] = (sum - diff) / 2
			s[2*k+1] = (sum + diff) / 2
		}
		length *= 2
	}
	return s
}

// coefLevel returns the tree level j of coefficient index i (i >= 1), such
// that i = 2^j + k. The overall-average coefficient (i == 0) has no level.
func coefLevel(i int64) uint {
	if i < 1 {
		panic("wavelet: coefLevel of average coefficient")
	}
	return uint(bits.Len64(uint64(i))) - 1
}

// BasisAt evaluates ψ_i(x) for coefficient index i over domain size u.
// O(1). Used by point queries and tests against the definition. An index
// at or past u names no basis function and evaluates to 0 everywhere.
func BasisAt(i, x, u int64) float64 {
	if x < 0 || x >= u || i >= u {
		return 0
	}
	if i == 0 {
		return 1 / math.Sqrt(float64(u))
	}
	j := coefLevel(i)
	k := i - int64(1)<<j
	rangeLen := u >> j // u / 2^j
	lo := k * rangeLen
	if x < lo || x >= lo+rangeLen {
		return 0
	}
	val := 1 / math.Sqrt(float64(rangeLen))
	if x < lo+rangeLen/2 {
		return -val
	}
	return val
}

// Energy returns ‖v‖² = Σ v(x)².
func Energy(v []float64) float64 {
	var e float64
	for _, x := range v {
		e += x * x
	}
	return e
}

// SSE returns Σ (a(x) - b(x))². Slices must have equal length.
func SSE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("wavelet: SSE length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
