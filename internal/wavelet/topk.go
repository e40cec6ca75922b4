package wavelet

import (
	"math"
	"sort"

	"wavelethist/internal/heap"
)

// SelectTopK returns the k coefficients of largest magnitude, sorted by
// decreasing |Value| with ties broken by ascending Index (deterministic).
// This is the paper's "best k-term wavelet representation" selection,
// done with a size-k priority queue in one pass (Section 2.1). Indexes
// must be distinct. The heap carries magnitudes; the signed value is
// remembered only for the coefficients it admits — about k·ln(n/k) of n,
// not all n.
func SelectTopK(coefs []Coef, k int) []Coef {
	h := heap.NewTopK(k)
	vals := make(map[int64]float64, min(k, len(coefs)))
	for _, c := range coefs {
		if h.Push(heap.Item{ID: c.Index, Score: math.Abs(c.Value)}) {
			vals[c.Index] = c.Value
		}
	}
	items := h.Sorted()
	out := make([]Coef, len(items))
	for i, it := range items {
		out[i] = Coef{Index: it.ID, Value: vals[it.ID]}
	}
	return out
}

// SelectTopKMap is SelectTopK over a coefficient map.
func SelectTopKMap(w map[int64]float64, k int) []Coef {
	coefs := make([]Coef, 0, len(w))
	for i, v := range w {
		coefs = append(coefs, Coef{Index: i, Value: v})
	}
	return SelectTopK(coefs, k)
}

// SelectTopKDense is SelectTopK over a dense coefficient vector.
func SelectTopKDense(w []float64, k int) []Coef {
	h := heap.NewTopK(k)
	for i, v := range w {
		if v != 0 {
			h.Push(heap.Item{ID: int64(i), Score: math.Abs(v)})
		}
	}
	items := h.Sorted()
	out := make([]Coef, len(items))
	for i, it := range items {
		out[i] = Coef{Index: it.ID, Value: w[it.ID]}
	}
	return out
}

// SortCoefsByMagnitude sorts coefficients by decreasing |Value|, ties by
// ascending Index.
func SortCoefsByMagnitude(coefs []Coef) {
	sort.Slice(coefs, func(i, j int) bool {
		ai, aj := math.Abs(coefs[i].Value), math.Abs(coefs[j].Value)
		if ai != aj {
			return ai > aj
		}
		return coefs[i].Index < coefs[j].Index
	})
}

// Representation is a k-term wavelet representation: a small set of
// retained coefficients over domain [0, u), plus an immutable piece table
// (built once, shared by snapshot copies) that answers point and range
// queries in O(log k + log u) instead of O(k).
type Representation struct {
	U     int64
	Coefs []Coef

	// pieces is the piece-table index over Coefs (errtree.go). It stores
	// positions, not values, so snapshots that patch values in place (the
	// incremental Maintainer) share one table. Nil only for hand-rolled
	// struct literals, which fall back to the linear scan.
	pieces *pieceTable

	// est[i] is v̂ on piece i, which a point estimate reads in place of
	// the piece's list pass. NewRepresentation fills it. The Maintainer's
	// snapshots carry none: values, unlike the table, cannot be shared by
	// a patched snapshot, and filling them at every snapshot made an
	// update ≈5% dearer (BenchmarkMaintainerUpdate).
	est []float64
}

// NewRepresentation validates and wraps a coefficient set, building its
// piece-table query index and each piece's estimate.
func NewRepresentation(u int64, coefs []Coef) *Representation {
	if !IsPowerOfTwo(u) {
		panic("wavelet: representation domain must be a power of two")
	}
	cs := make([]Coef, len(coefs))
	copy(cs, coefs)
	SortCoefsByMagnitude(cs)
	t := newPieceTable(u, cs)
	return &Representation{U: u, Coefs: cs, pieces: t, est: t.estimates(cs)}
}

// K returns the number of retained coefficients.
func (r *Representation) K() int { return len(r.Coefs) }

// Reconstruct materializes the dense estimated frequency vector
// v̂(x) = Σ w_i ψ_i(x). O(u + Σ support) ≤ O(k·u) time.
func (r *Representation) Reconstruct() []float64 {
	v := make([]float64, r.U)
	for _, c := range r.Coefs {
		addBasis(v, c, r.U)
	}
	return v
}

// addBasis adds c.Value·ψ_{c.Index} into v; an index at or past u adds
// nothing, as in BasisAt.
func addBasis(v []float64, c Coef, u int64) {
	if c.Index >= u {
		return
	}
	if c.Index == 0 {
		val := c.Value / math.Sqrt(float64(u))
		for x := range v {
			v[x] += val
		}
		return
	}
	j := coefLevel(c.Index)
	k := c.Index - int64(1)<<j
	rangeLen := u >> j
	lo := k * rangeLen
	val := c.Value / math.Sqrt(float64(rangeLen))
	half := lo + rangeLen/2
	for x := lo; x < half; x++ {
		v[x] -= val
	}
	for x := half; x < lo+rangeLen; x++ {
		v[x] += val
	}
}

// PointEstimate returns v̂(x): the stored estimate of x's piece, or a
// pass over the ≤ log2(u)+1 error-tree ancestors of x that the piece
// table lists for it — bit-identical to ScanPointEstimate either way.
// Keys outside [0, u) estimate 0.
func (r *Representation) PointEstimate(x int64) float64 {
	switch {
	case r.est != nil && x >= 0 && x < r.U:
		return r.est[r.pieces.piece(x)]
	case r.pieces == nil:
		return r.ScanPointEstimate(x)
	}
	return r.pieces.point(r.Coefs, x)
}

// BatchPoints answers n point queries: out[i] = PointEstimate(xs[i]), in
// request order. len(out) must equal len(xs). Allocation-free.
func (r *Representation) BatchPoints(xs []int64, out []float64) {
	if len(out) != len(xs) {
		panic("wavelet: BatchPoints slice length mismatch")
	}
	for i, x := range xs {
		out[i] = r.PointEstimate(x)
	}
}

// ScanPointEstimate is the O(k) linear-scan reference evaluation of v̂(x),
// retained for equivalence tests and benchmarks against the indexed path.
func (r *Representation) ScanPointEstimate(x int64) float64 {
	var s float64
	for _, c := range r.Coefs {
		s += c.Value * BasisAt(c.Index, x, r.U)
	}
	return s
}

// RangeSum estimates Σ_{x=lo..hi} v(x) (inclusive bounds), touching only
// the error-tree ancestors of the two boundaries — interior ψ terms cancel
// exactly — through the merged piece lists of the two bounds,
// bit-identical to ScanRangeSum.
//
// Bound contract (shared by the serving layer): lo and hi are clamped to
// [0, u-1]; a range whose intersection with the domain is empty (lo > hi,
// or the whole range off-domain) estimates 0. Never an error.
func (r *Representation) RangeSum(lo, hi int64) float64 {
	if r.pieces == nil {
		return r.ScanRangeSum(lo, hi)
	}
	return r.pieces.rangeSum(r.Coefs, lo, hi)
}

// BatchRanges answers n range-sum queries: out[i] = RangeSum(los[i],
// his[i]), in request order, with its clamp contract. len(los), len(his)
// and len(out) must match. Allocation-free.
func (r *Representation) BatchRanges(los, his []int64, out []float64) {
	if len(his) != len(los) || len(out) != len(los) {
		panic("wavelet: BatchRanges slice length mismatch")
	}
	for i := range los {
		out[i] = r.RangeSum(los[i], his[i])
	}
}

// ScanRangeSum is the O(k) linear-scan reference evaluation of RangeSum
// (Matias et al. [26]'s selectivity estimate), with the same bound
// clamping.
func (r *Representation) ScanRangeSum(lo, hi int64) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi >= r.U {
		hi = r.U - 1
	}
	if lo > hi {
		return 0
	}
	var s float64
	for _, c := range r.Coefs {
		s += c.Value * basisRangeSum(c.Index, lo, hi, r.U)
	}
	return s
}

// basisRangeSum returns Σ_{x=lo..hi} ψ_i(x) in O(1); 0 for an index at
// or past u, as in BasisAt.
func basisRangeSum(i, lo, hi, u int64) float64 {
	if i >= u {
		return 0
	}
	if i == 0 {
		return float64(hi-lo+1) / math.Sqrt(float64(u))
	}
	j := coefLevel(i)
	k := i - int64(1)<<j
	rangeLen := u >> j
	start := k * rangeLen
	mid := start + rangeLen/2
	end := start + rangeLen // exclusive
	// Overlap with negative half [start, mid) and positive half [mid, end).
	neg := overlap(lo, hi+1, start, mid)
	pos := overlap(lo, hi+1, mid, end)
	if neg == 0 && pos == 0 {
		return 0
	}
	return float64(pos-neg) / math.Sqrt(float64(rangeLen))
}

// overlap returns |[aLo,aHi) ∩ [bLo,bHi)|.
func overlap(aLo, aHi, bLo, bHi int64) int64 {
	lo, hi := aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// SSEAgainst computes Σ_x (v(x) - v̂(x))² against a dense truth vector
// without materializing v̂ when k is small: it reconstructs once (O(k·u))
// — still the cheapest exact approach for the experiment domains used here.
func (r *Representation) SSEAgainst(v []float64) float64 {
	if int64(len(v)) != r.U {
		panic("wavelet: SSEAgainst domain mismatch")
	}
	vhat := r.Reconstruct()
	return SSE(v, vhat)
}

// IdealSSE returns the minimum possible SSE of any k-term representation of
// the signal with coefficient vector w: energy minus the energy of the k
// largest-magnitude coefficients (Parseval).
func IdealSSE(w []float64, k int) float64 {
	top := SelectTopKDense(w, k)
	var kept float64
	for _, c := range top {
		kept += c.Value * c.Value
	}
	return Energy(w) - kept
}
