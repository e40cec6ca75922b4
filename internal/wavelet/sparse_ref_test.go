package wavelet

import (
	"math"
	"slices"
)

// Map-form transforms: the reference oracles the sorted, streaming
// transforms are checked against.

// SparseTransform computes all non-zero Haar coefficients of the sparse
// frequency vector freq (key -> count) over domain [0, u) in O(|v| log u),
// walking each key's root-to-leaf path into a map.
func SparseTransform(freq map[int64]float64, u int64) map[int64]float64 {
	logu := Log2(u)
	w := make(map[int64]float64, len(freq)*int(logu+1)/2)
	sqrtU := math.Sqrt(float64(u))
	for x, c := range freq {
		if x < 0 || x >= u {
			panic("wavelet: key out of domain")
		}
		if c == 0 {
			continue
		}
		w[0] += c / sqrtU
		// Walk levels top-down; at level j the covering detail
		// coefficient is 2^j + x/(u/2^j), with sign by half.
		for j := uint(0); j < logu; j++ {
			rangeLen := u >> j
			k := x / rangeLen
			idx := int64(1)<<j + k
			contrib := c / math.Sqrt(float64(rangeLen))
			if x-k*rangeLen < rangeLen/2 {
				contrib = -contrib
			}
			nv := w[idx] + contrib
			if nv == 0 {
				delete(w, idx)
			} else {
				w[idx] = nv
			}
		}
	}
	if w[0] == 0 {
		delete(w, 0)
	}
	return w
}

// SortFreq converts a frequency map into parallel sorted slices, the form
// SparseTransformSorted consumes.
func SortFreq(freq map[int64]float64) (keys []int64, counts []float64) {
	keys = make([]int64, 0, len(freq))
	for x := range freq {
		keys = append(keys, x)
	}
	slices.Sort(keys)
	counts = make([]float64, len(keys))
	for i, x := range keys {
		counts[i] = freq[x]
	}
	return keys, counts
}

// SparseTransform2D is SparseTransform2DSorted over a packed-key map.
func SparseTransform2D(freq map[int64]float64, u int64) map[int64]float64 {
	keys, counts := SortFreq(freq)
	return SparseTransform2DSorted(keys, counts, u)
}
