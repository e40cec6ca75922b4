package wavelet

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// The error-tree query engine.
//
// A k-term representation answers queries as v̂(x) = Σ w_i ψ_i(x), and the
// naive evaluation scans all k retained coefficients even though ψ_i(x) is
// non-zero only for the ≤ log2(u)+1 coefficients on x's root-to-leaf path
// in the Haar error tree (Matias, Vitter, Wang's query model — the reason
// wavelet histograms answer point and range queries fast). errTree is the
// per-representation index that makes those ancestor lookups cheap: the
// coefficient positions of the representation's Coefs slice, sorted by
// coefficient index and bucketed by error-tree level, so an ancestor is
// found with one binary search inside its level — per-level offset tables
// over an index-sorted position array, no hashing on the read path.
//
// The index is structural: it stores positions into Coefs, never values,
// so a caller that patches coefficient values in place (the incremental
// Maintainer's snapshot path) can share one errTree across snapshots whose
// index multiset is unchanged.
//
// # Bit-identical results
//
// Indexed estimates are bit-identical to the O(k) linear scan, not merely
// close. Two facts make this work:
//
//  1. Skipped coefficients contribute an exact ±0 term in the scan (their
//     basis factor is 0), and adding ±0 never changes a running float64
//     sum that started at +0 — a finite sum can never round to -0, so
//     s + ±0 == s at every step.
//  2. The matched ancestor terms are accumulated in coefficient-position
//     order — exactly the order the scan visits them — using the same
//     basis arithmetic (basisAtLevel / basisRangeSum), so every partial
//     sum rounds identically.
//
// Invalid coefficient indices (negative, or outside the domain) are
// parked in a trailing overflow bucket no query target can reach; the
// scan path gives such coefficients an exact zero basis factor too, with
// one divergence: the scan panics on negative indices (coefLevel), the
// index silently ignores them. Serialized histograms reject them before
// either path runs.
type errTree struct {
	u    int64
	logu uint
	ord  []int32 // positions into Coefs, sorted by (level, index, position)
	off  []int32 // level L entries are ord[off[L]:off[L+1]]; L=0 is the
	// average coefficient, L=j+1 is detail level j, L=logu+1 is
	// the overflow bucket for out-of-domain indices.

	// idxs[i] == coefs[ord[i]].Index, materialized at build time so the
	// batch executor's per-level merge joins compare against one flat
	// sorted array instead of chasing ord into Coefs. Indices never change
	// across value-patched snapshots (only values do), so caching them is
	// as safe as caching ord itself.
	idxs []int64

	// Precomputed basis factors, bit-identical to what the scalar path
	// derives per query: sqrtU = math.Sqrt(float64(u)); sqrtLen[j] =
	// math.Sqrt(float64(u>>j)) and invSqrtLen[j] = 1/sqrtLen[j] for detail
	// level j. math.Sqrt is correctly rounded, so dividing by (or negating)
	// a cached root gives the same bits as recomputing it per term.
	sqrtU      float64
	invSqrtU   float64
	sqrtLen    []float64
	invSqrtLen []float64
}

// posTerm is one matched ancestor's contribution, tagged with its position
// in the representation's Coefs slice so terms can be summed in scan order.
type posTerm struct {
	pos  int32
	term float64
}

// errTreeLevel buckets a coefficient index: 0 for the overall average,
// 1+j for detail level j, logu+1 for anything outside the domain.
func errTreeLevel(idx, u int64, logu uint) int {
	if idx == 0 {
		return 0
	}
	if idx < 0 || idx >= u {
		return int(logu) + 1
	}
	return int(coefLevel(idx)) + 1
}

// newErrTree indexes coefs (a Representation's Coefs slice) over domain u.
// O(k log k) build; the result is immutable and safe for concurrent reads.
func newErrTree(u int64, coefs []Coef) *errTree {
	logu := Log2(u)
	t := &errTree{u: u, logu: logu}
	n := len(coefs)
	type entry struct {
		index int64
		level int32
		pos   int32
	}
	es := make([]entry, n)
	for i, c := range coefs {
		es[i] = entry{c.Index, int32(errTreeLevel(c.Index, u, logu)), int32(i)}
	}
	slices.SortFunc(es, func(a, b entry) int {
		if c := cmp.Compare(a.level, b.level); c != 0 {
			return c
		}
		if c := cmp.Compare(a.index, b.index); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	t.ord = make([]int32, n)
	t.idxs = make([]int64, n)
	t.off = make([]int32, int(logu)+3)
	for i := range t.off {
		t.off[i] = int32(n)
	}
	cur := -1
	for i, e := range es {
		t.ord[i], t.idxs[i] = e.pos, e.index
		if l := int(e.level); l != cur {
			for j := cur + 1; j <= l; j++ {
				t.off[j] = int32(i)
			}
			cur = l
		}
	}
	t.sqrtU = math.Sqrt(float64(u))
	t.invSqrtU = 1 / t.sqrtU
	t.sqrtLen = make([]float64, logu)
	t.invSqrtLen = make([]float64, logu)
	for j := uint(0); j < logu; j++ {
		t.sqrtLen[j] = math.Sqrt(float64(u >> j))
		t.invSqrtLen[j] = 1 / t.sqrtLen[j]
	}
	return t
}

// find returns the half-open range of positions in level L whose
// coefficient index equals target (duplicates are adjacent).
func (t *errTree) find(coefs []Coef, level int, target int64) (int, int) {
	lo, hi := int(t.off[level]), int(t.off[level+1])
	end := hi
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if coefs[t.ord[mid]].Index < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	hi = lo
	for hi < end && coefs[t.ord[hi]].Index == target {
		hi++
	}
	return lo, hi
}

// basisAtLevel is BasisAt for a coefficient known to live at detail level
// j and dyadic position k — the same arithmetic without re-deriving the
// level, so indexed and scan estimates round identically.
func basisAtLevel(j uint, k, x, u int64) float64 {
	rangeLen := u >> j
	val := 1 / math.Sqrt(float64(rangeLen))
	if x-k*rangeLen < rangeLen/2 {
		return -val
	}
	return val
}

// sumByPos sorts the matched terms by coefficient position (insertion
// sort: the slice is at most a few dozen entries) and sums them in that
// order — the linear scan's visitation order.
func sumByPos(terms []posTerm) float64 {
	for i := 1; i < len(terms); i++ {
		e := terms[i]
		j := i - 1
		for j >= 0 && terms[j].pos > e.pos {
			terms[j+1] = terms[j]
			j--
		}
		terms[j+1] = e
	}
	var s float64
	for _, e := range terms {
		s += e.term
	}
	return s
}

// pointEstimate evaluates v̂(x) touching only x's ≤ log2(u)+1 error-tree
// ancestors: O(log u · log k) with the per-level binary searches.
// Allocation-free for representations without pathological duplicate
// runs (the term buffer spills to the heap past 80 matches).
func (t *errTree) pointEstimate(coefs []Coef, x int64) float64 {
	if x < 0 || x >= t.u {
		return 0 // every basis factor is zero off-domain, as in the scan
	}
	var stack [80]posTerm
	terms := stack[:0]
	lo, hi := t.find(coefs, 0, 0)
	if lo < hi {
		b := 1 / math.Sqrt(float64(t.u))
		for i := lo; i < hi; i++ {
			p := t.ord[i]
			terms = append(terms, posTerm{p, coefs[p].Value * b})
		}
	}
	for j := uint(0); j < t.logu; j++ {
		rangeLen := t.u >> j
		k := x / rangeLen
		lo, hi := t.find(coefs, int(j)+1, int64(1)<<j+k)
		if lo == hi {
			continue
		}
		b := basisAtLevel(j, k, x, t.u)
		for i := lo; i < hi; i++ {
			p := t.ord[i]
			terms = append(terms, posTerm{p, coefs[p].Value * b})
		}
	}
	return sumByPos(terms)
}

// rangeSum evaluates Σ_{x=lo..hi} v̂(x) touching only the ancestors of the
// two range boundaries — every strictly interior coefficient's positive
// and negative ψ halves cancel exactly, so only boundary-straddling
// coefficients (plus the average) contribute: O(log u · log k).
// Bounds are clamped to the domain; an empty intersection returns 0.
func (t *errTree) rangeSum(coefs []Coef, lo, hi int64) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi >= t.u {
		hi = t.u - 1
	}
	if lo > hi {
		return 0
	}
	var stack [160]posTerm
	terms := stack[:0]
	s, e := t.find(coefs, 0, 0)
	if s < e {
		b := float64(hi-lo+1) / math.Sqrt(float64(t.u))
		for i := s; i < e; i++ {
			p := t.ord[i]
			terms = append(terms, posTerm{p, coefs[p].Value * b})
		}
	}
	for j := uint(0); j < t.logu; j++ {
		rangeLen := t.u >> j
		kLo, kHi := lo/rangeLen, hi/rangeLen
		terms = t.appendRangeTerms(coefs, terms, j, kLo, lo, hi)
		if kHi != kLo {
			terms = t.appendRangeTerms(coefs, terms, j, kHi, lo, hi)
		}
	}
	return sumByPos(terms)
}

// appendRangeTerms adds the contributions of the (possibly duplicated)
// coefficient at detail level j, dyadic position k, to a clamped [lo, hi]
// range query, using basisRangeSum's exact arithmetic.
func (t *errTree) appendRangeTerms(coefs []Coef, terms []posTerm, j uint, k, lo, hi int64) []posTerm {
	s, e := t.find(coefs, int(j)+1, int64(1)<<j+k)
	if s == e {
		return terms
	}
	rangeLen := t.u >> j
	start := k * rangeLen
	mid := start + rangeLen/2
	end := start + rangeLen
	neg := overlap(lo, hi+1, start, mid)
	pos := overlap(lo, hi+1, mid, end)
	b := float64(pos-neg) / math.Sqrt(float64(rangeLen))
	for i := s; i < e; i++ {
		p := t.ord[i]
		terms = append(terms, posTerm{p, coefs[p].Value * b})
	}
	return terms
}

// errTree2D indexes a 2D representation's packed coefficients: positions
// sorted by packed index, with an offset table over the distinct row
// indices i (the x-axis ψ component), so the ≤ (log2(u)+1)² ancestor
// pairs of a cell resolve with one row search plus per-row binary
// searches. Out-of-domain packed indices are dropped from the index
// entirely — their basis factor is an exact zero in the scan.
type errTree2D struct {
	u    int64
	logu uint
	ord  []int32 // in-domain positions, sorted by (packed index, position)
	gkey []int64 // distinct row index i per group, ascending
	goff []int32 // group g entries are ord[goff[g]:goff[g+1]]

	// idxs[i] == coefs[ord[i]].Index — flat packed-index mirror for the
	// batch executor's merge joins (see errTree.idxs).
	idxs []int64

	// Precomputed basis factors (see errTree): invSqrtU matches
	// ancestorPaths' 1/math.Sqrt(float64(u)); invSqrtLen[j] matches
	// basisAtLevel's 1/math.Sqrt(float64(u>>j)), bit for bit. sqrtU and
	// sqrtLen are the roots themselves for the range path's divisions —
	// dividing by a cached correctly-rounded root gives the same bits as
	// recomputing math.Sqrt per term (and is NOT the same as multiplying
	// by the cached inverse, which rounds differently).
	sqrtU      float64
	invSqrtU   float64
	sqrtLen    []float64
	invSqrtLen []float64
}

// newErrTree2D indexes coefs (packed 2D indices) over the u×u grid.
func newErrTree2D(u int64, coefs []Coef) *errTree2D {
	t := &errTree2D{u: u, logu: Log2(u)}
	t.ord = make([]int32, 0, len(coefs))
	for i, c := range coefs {
		if c.Index >= 0 && c.Index < u*u {
			t.ord = append(t.ord, int32(i))
		}
	}
	sort.Slice(t.ord, func(a, b int) bool {
		pa, pb := t.ord[a], t.ord[b]
		if coefs[pa].Index != coefs[pb].Index {
			return coefs[pa].Index < coefs[pb].Index
		}
		return pa < pb
	})
	var curRow int64 = -1
	for i, p := range t.ord {
		row := coefs[p].Index / u
		if row != curRow {
			t.gkey = append(t.gkey, row)
			t.goff = append(t.goff, int32(i))
			curRow = row
		}
	}
	t.goff = append(t.goff, int32(len(t.ord)))
	t.idxs = make([]int64, len(t.ord))
	for i, p := range t.ord {
		t.idxs[i] = coefs[p].Index
	}
	t.sqrtU = math.Sqrt(float64(t.u))
	t.invSqrtU = 1 / t.sqrtU
	t.sqrtLen = make([]float64, t.logu)
	t.invSqrtLen = make([]float64, t.logu)
	for j := uint(0); j < t.logu; j++ {
		t.sqrtLen[j] = math.Sqrt(float64(t.u >> j))
		t.invSqrtLen[j] = 1 / t.sqrtLen[j]
	}
	return t
}

// ancestorPaths fills the level-indexed ancestor indices and basis values
// of coordinate x: slot 0 is the average component, slot j+1 detail level
// j. Returns the slice length (logu+1).
func (t *errTree2D) ancestorPaths(x int64, idx *[64]int64, bas *[64]float64) int {
	idx[0] = 0
	bas[0] = 1 / math.Sqrt(float64(t.u))
	for j := uint(0); j < t.logu; j++ {
		rangeLen := t.u >> j
		k := x / rangeLen
		idx[j+1] = int64(1)<<j + k
		bas[j+1] = basisAtLevel(j, k, x, t.u)
	}
	return int(t.logu) + 1
}

// pointEstimate evaluates v̂(x, y) touching only the (log2(u)+1)² ancestor
// pairs: O(log²u · log k). Bit-identical to the scan for the same reasons
// as the 1D index.
func (t *errTree2D) pointEstimate(coefs []Coef, x, y int64) float64 {
	if x < 0 || x >= t.u || y < 0 || y >= t.u {
		return 0
	}
	var xi, yi [64]int64
	var xb, yb [64]float64
	nx := t.ancestorPaths(x, &xi, &xb)
	ny := t.ancestorPaths(y, &yi, &yb)
	var stack [144]posTerm
	terms := stack[:0]
	for a := 0; a < nx; a++ {
		g := sort.Search(len(t.gkey), func(i int) bool { return t.gkey[i] >= xi[a] })
		if g == len(t.gkey) || t.gkey[g] != xi[a] {
			continue
		}
		glo, ghi := int(t.goff[g]), int(t.goff[g+1])
		base := xi[a] * t.u
		for b := 0; b < ny; b++ {
			target := base + yi[b]
			lo, hi := glo, ghi
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if coefs[t.ord[mid]].Index < target {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			bv := xb[a] * yb[b]
			for lo < ghi && coefs[t.ord[lo]].Index == target {
				p := t.ord[lo]
				terms = append(terms, posTerm{p, coefs[p].Value * bv})
				lo++
			}
		}
	}
	return sumByPos(terms)
}

// rangeFactor is Σ_{x=lo..hi} ψ over detail level j, dyadic position k —
// basisRangeSum's arithmetic with the cached level root, so indexed and
// scan range sums round identically.
func (t *errTree2D) rangeFactor(j uint, k, lo, hi int64) float64 {
	rangeLen := t.u >> j
	start := k * rangeLen
	mid := start + rangeLen/2
	end := start + rangeLen
	neg := overlap(lo, hi+1, start, mid)
	pos := overlap(lo, hi+1, mid, end)
	return float64(pos-neg) / t.sqrtLen[j]
}

// rangeCandidates fills the ≤ 2·log2(u)+1 error-tree candidates of a
// clamped 1D range [lo, hi]: the average component plus, per detail
// level, the cell containing lo and (when it differs) the cell containing
// hi — every other cell's positive and negative ψ halves cancel exactly.
// row[c] is the coefficient index, fac[c] the summed basis factor.
// Returns the candidate count.
func (t *errTree2D) rangeCandidates(lo, hi int64, row *[128]int64, fac *[128]float64) int {
	row[0] = 0
	fac[0] = float64(hi-lo+1) / t.sqrtU
	n := 1
	for j := uint(0); j < t.logu; j++ {
		rangeLen := t.u >> j
		kLo, kHi := lo/rangeLen, hi/rangeLen
		row[n] = int64(1)<<j + kLo
		fac[n] = t.rangeFactor(j, kLo, lo, hi)
		n++
		if kHi != kLo {
			row[n] = int64(1)<<j + kHi
			fac[n] = t.rangeFactor(j, kHi, lo, hi)
			n++
		}
	}
	return n
}

// append2DTarget appends the (possibly duplicated) coefficients whose
// packed index equals target within row group [glo, ghi), each scaled by
// the combined basis factor bv.
func (t *errTree2D) append2DTarget(coefs []Coef, terms []posTerm, glo, ghi int, target int64, bv float64) []posTerm {
	lo, hi := glo, ghi
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.idxs[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < ghi && t.idxs[lo] == target {
		p := t.ord[lo]
		terms = append(terms, posTerm{p, coefs[p].Value * bv})
		lo++
	}
	return terms
}

// rangeSum evaluates Σ_{x=xlo..xhi, y=ylo..yhi} v̂(x, y) touching only the
// tensor products of the two axes' boundary candidates — O(log²u · log k)
// instead of the O(k) scan, bit-identical to it: per axis only the
// average and boundary-straddling components have a non-zero summed
// basis factor (interior cells cancel exactly, and a cell containing the
// whole range is an ancestor of both bounds), and the factor arithmetic
// matches basisRangeSum term for term. Bounds are clamped per axis; an
// empty intersection returns 0.
func (t *errTree2D) rangeSum(coefs []Coef, xlo, xhi, ylo, yhi int64) float64 {
	if xlo < 0 {
		xlo = 0
	}
	if xhi >= t.u {
		xhi = t.u - 1
	}
	if ylo < 0 {
		ylo = 0
	}
	if yhi >= t.u {
		yhi = t.u - 1
	}
	if xlo > xhi || ylo > yhi {
		return 0
	}
	var xrow, yrow [128]int64
	var xfac, yfac [128]float64
	nx := t.rangeCandidates(xlo, xhi, &xrow, &xfac)
	ny := t.rangeCandidates(ylo, yhi, &yrow, &yfac)
	var stack [288]posTerm
	terms := stack[:0]
	for a := 0; a < nx; a++ {
		g := sort.Search(len(t.gkey), func(i int) bool { return t.gkey[i] >= xrow[a] })
		if g == len(t.gkey) || t.gkey[g] != xrow[a] {
			continue
		}
		glo, ghi := int(t.goff[g]), int(t.goff[g+1])
		base := xrow[a] * t.u
		bx := xfac[a]
		for b := 0; b < ny; b++ {
			terms = t.append2DTarget(coefs, terms, glo, ghi, base+yrow[b], bx*yfac[b])
		}
	}
	return sumByPos(terms)
}
