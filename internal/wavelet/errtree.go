package wavelet

import (
	"math"
	"math/bits"
	"sort"
)

// The query indexes.
//
// A k-term representation answers queries as v̂(x) = Σ w_i ψ_i(x), and the
// naive evaluation scans all k retained coefficients even though ψ_i(x) is
// non-zero only for the coefficients whose support contains x — at most
// log2(u)+1 distinct indices, x's root-to-leaf path in the Haar error tree
// (Matias, Vitter, Wang's query model, the reason wavelet histograms
// answer point and range queries fast).
//
// The 1D index, pieceTable, lists those coefficients ahead of time. Cut
// the domain at the start, the midpoint and the end of every retained
// in-domain coefficient's dyadic support: each piece between two
// consecutive cuts then lies wholly inside or wholly outside every
// support, and wholly inside one half of each support it lies in, and
// stores the positions in Coefs of the coefficients whose support
// contains it, ascending. Every ψ in a piece's list has one sign over the
// whole piece, so v̂ is constant on it: a k-term synopsis is a histogram
// of ≤ 3k+1 buckets. A point query finds its piece through a guide table
// and reads the piece's estimate where the representation stores one
// (NewRepresentation), or makes one pass over the list (the Maintainer's
// snapshots, whose values change under a shared table). A range query
// merges the lists of the pieces holding its two bounds: a coefficient
// whose support holds neither bound lies inside the range, where its ψ
// halves cancel exactly, or outside it.
//
// The guide cuts the domain into 2^g equal buckets, 2^g the least power
// of two ≥ the piece count (never past u: every piece holds a key), and
// guide[b] is the piece holding the bucket's first key b<<gshift;
// guide[2^g] is the last piece. The piece holding x lies between
// guide[x>>gshift] and guide[x>>gshift+1], both included, so a lookup
// reads two guide slots and binary-searches only the starts between
// them: none on most lookups when the cuts spread out, a short search
// where they cluster (deep coefficients under one key), instead of the
// ≈ log2(3k+1) data-dependent steps of a search over every start.
//
// Size: the ≤ 3k cuts make ≤ 3k+1 pieces. A coefficient is listed once
// per piece inside its support, 1 + the cuts strictly inside it: its own
// midpoint, and a start, midpoint or end of one of its retained
// descendants (≤ 3 each); summed over the coefficients that is
// ≤ k·(3·log2(u)+2) list entries for distinct indices, since a
// coefficient has at most log2(u) ancestors. At k = u the finest
// supports are two keys wide and cut at their midpoints, so every key is
// a piece and every list a full root-to-leaf path: u pieces and
// u·(log2(u)+1) entries. The guide adds 2^g+1 slots, fewer than twice the
// pieces plus one: u+1 at k = u. A stored estimate adds 8 bytes a piece.
//
// The table is structural: it stores positions into Coefs, never values,
// so a caller that patches coefficient values in place (the incremental
// Maintainer's snapshot path) shares one table across snapshots whose
// index multiset is unchanged. Stored estimates are values, so they live
// in the Representation beside the table, never in it.
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
//  2. A piece's list (and the merge of two, which takes a position found
//     in both once) is in coefficient-position order — exactly the order
//     the scan visits them — and each term uses the scan's arithmetic
//     (BasisAt / basisRangeSum) with cached roots: math.Sqrt is correctly
//     rounded, so a cached root or its reciprocal is the value the scan
//     derives per term, and every partial sum rounds identically.
//  3. A stored estimate is the list pass at the piece's first key, and
//     any other key of the piece gives that pass the same terms: the same
//     coefficients in the same order, each with the same factor, since no
//     support's start, midpoint or end falls strictly inside the piece,
//     so no ψ changes value across it.
//
// Invalid coefficient indices (negative, or outside the domain) cut
// nothing and are listed in no piece; the scan gives such coefficients an
// exact zero basis factor too, with one divergence: the scan panics on
// negative indices (coefLevel), the table silently ignores them.
// Serialized histograms reject them before either path runs.
type pieceTable struct {
	u      int64
	logu   uint
	start  []int64 // piece i is [start[i], start[i+1]), the last one ends at u; start[0] = 0
	off    []int32 // piece i lists pos[off[i]:off[i+1]]
	pos    []int32 // positions into Coefs, ascending within each piece
	guide  []int32 // guide[b] is the piece holding b<<gshift, 2^g+1 entries
	gshift uint    // log2(u) - g

	// Cached basis factors: sqrtU = math.Sqrt(float64(u)), invSqrtU =
	// 1/sqrtU; sqrtLen[j] = math.Sqrt(float64(u>>j)) and invSqrtLen[j] =
	// 1/sqrtLen[j] for detail level j.
	sqrtU      float64
	invSqrtU   float64
	sqrtLen    []float64
	invSqrtLen []float64
}

// newPieceTable indexes coefs (a Representation's Coefs slice) over
// domain u: one radix sort of the ≤ 3k cut records, one sweep that
// numbers the pieces, one pass that fills the guide, and one write per
// list entry — O(k·log2(u)/8 + the entries). The result is immutable and
// safe for concurrent reads.
func newPieceTable(u int64, coefs []Coef) *pieceTable {
	logu := Log2(u)
	t := &pieceTable{u: u, logu: logu, sqrtU: math.Sqrt(float64(u))}
	t.invSqrtU = 1 / t.sqrtU
	t.sqrtLen = make([]float64, logu)
	t.invSqrtLen = make([]float64, logu)
	for j := uint(0); j < logu; j++ {
		t.sqrtLen[j] = math.Sqrt(float64(u >> j))
		t.invSqrtLen[j] = 1 / t.sqrtLen[j]
	}

	// One cut record per support start, midpoint and end short of u,
	// sorted by where it cuts; numbering the distinct cuts in that order
	// gives each coefficient the piece range [a, b) it is listed in —
	// span[2i:2i+2], empty for an invalid index. A midpoint only cuts.
	recs := make([]cutRec, 0, 3*len(coefs))
	span := make([]int32, 2*len(coefs))
	for i, c := range coefs {
		switch {
		case c.Index == 0:
			span[2*i+1] = -1 // to the last piece
		case c.Index > 0 && c.Index < u:
			_, s, e := t.support(c.Index)
			recs = append(recs, cutRec{s, int32(2 * i)}, cutRec{s + (e-s)/2, -1})
			if e < u {
				recs = append(recs, cutRec{e, int32(2*i + 1)})
			} else {
				span[2*i+1] = -1
			}
		}
	}
	recs = radixSortCuts(recs, make([]cutRec, len(recs)), logu)
	t.start = make([]int64, 1, len(recs)+1) // start[0] = 0
	for _, r := range recs {
		if r.at != t.start[len(t.start)-1] {
			t.start = append(t.start, r.at)
		}
		if r.slot >= 0 {
			span[r.slot] = int32(len(t.start) - 1)
		}
	}
	np := int32(len(t.start))

	g := uint(bits.Len32(uint32(np - 1))) // the least g with 2^g ≥ np
	t.gshift = logu - g
	t.guide = make([]int32, 1<<g+1)
	var p int32
	for b := range t.guide {
		for p+1 < np && t.start[p+1] <= int64(b)<<t.gshift {
			p++
		}
		t.guide[b] = p
	}

	// cnt is first a difference array over the pieces, then each piece's
	// fill cursor.
	cnt := make([]int32, np+1)
	for i := 0; i < len(span); i += 2 {
		if span[i+1] < 0 {
			span[i+1] = np
		}
		cnt[span[i]]++
		cnt[span[i+1]]--
	}
	t.off = make([]int32, np+1)
	var run int32
	for p := int32(0); p < np; p++ {
		run += cnt[p]
		t.off[p+1] = t.off[p] + run
	}
	copy(cnt, t.off[:np])
	t.pos = make([]int32, t.off[np])
	for i := range coefs {
		for p := span[2*i]; p < span[2*i+1]; p++ {
			t.pos[cnt[p]] = int32(i)
			cnt[p]++
		}
	}
	return t
}

// cutRec is one cut of the domain at key at, made by the support start
// (slot 2i), end (slot 2i+1) or midpoint (slot -1) of coefficient i.
type cutRec struct {
	at   int64
	slot int32
}

// radixSortCuts sorts recs by at, every at below 2^bits, with a stable
// least-significant-digit radix sort of 8-bit digits; tmp is scratch of
// the same length. It returns whichever of the two holds the result.
func radixSortCuts(recs, tmp []cutRec, bits uint) []cutRec {
	for shift := uint(0); shift < bits; shift += 8 {
		var cnt [257]int32
		for _, r := range recs {
			cnt[r.at>>shift&255+1]++
		}
		for d := 1; d < len(cnt); d++ {
			cnt[d] += cnt[d-1]
		}
		for _, r := range recs {
			d := r.at >> shift & 255
			tmp[cnt[d]] = r
			cnt[d]++
		}
		recs, tmp = tmp, recs
	}
	return recs
}

// support returns the detail level j and the dyadic support [s, e) of an
// in-domain detail coefficient index i (1 <= i < u).
func (t *pieceTable) support(i int64) (j uint, s, e int64) {
	j = uint(bits.Len64(uint64(i))) - 1
	shift := t.logu - j
	s = (i - int64(1)<<j) << shift
	return j, s, s + int64(1)<<shift
}

// piece returns the index of the piece holding x, 0 <= x < u: the last
// piece starting at or before x, searched for between the guide's pieces
// for x's bucket and the next.
func (t *pieceTable) piece(x int64) int {
	b := x >> t.gshift
	lo, hi := int(t.guide[b]), int(t.guide[b+1])+1 // start[lo] <= x < start[hi]
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if t.start[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// list returns piece i's coefficient positions.
func (t *pieceTable) list(i int) []int32 { return t.pos[t.off[i]:t.off[i+1]] }

// point evaluates v̂(x) over x's piece list: one guided lookup and ≤
// log2(u)+1 terms for distinct indices. Allocation-free.
func (t *pieceTable) point(coefs []Coef, x int64) float64 {
	if x < 0 || x >= t.u {
		return 0 // every basis factor is zero off-domain, as in the scan
	}
	return t.listSum(coefs, t.piece(x), x)
}

// estimates returns v̂ on each piece, the list pass at its first key,
// which every key of the piece shares.
func (t *pieceTable) estimates(coefs []Coef) []float64 {
	est := make([]float64, len(t.start))
	for i, x := range t.start {
		est[i] = t.listSum(coefs, i, x)
	}
	return est
}

// listSum evaluates v̂(x) for a key x of piece i: one pass over its list.
func (t *pieceTable) listSum(coefs []Coef, i int, x int64) float64 {
	var s float64
	for _, p := range t.list(i) {
		c := &coefs[p]
		b := t.invSqrtU
		if c.Index != 0 {
			j := uint(bits.Len64(uint64(c.Index))) - 1
			// BasisAt's sign: negative iff x lies in the first half of
			// the support, i.e. bit log2(u)-j-1 of x is clear. Flipping
			// the sign bit is exact negation, and spares a branch that
			// the lists' mixed signs would mispredict.
			neg := ^uint64(x>>(t.logu-j-1)) & 1
			b = math.Float64frombits(math.Float64bits(t.invSqrtLen[j]) ^ neg<<63)
		}
		s += c.Value * b
	}
	return s
}

// rangeSum evaluates Σ_{x=lo..hi} v̂(x) over the merged piece lists of the
// two bounds: two guided lookups and ≤ 2·log2(u)+1 terms for distinct
// indices. Bounds are clamped to the domain; an empty intersection
// returns 0. Allocation-free.
func (t *pieceTable) rangeSum(coefs []Coef, lo, hi int64) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi >= t.u {
		hi = t.u - 1
	}
	if lo > hi {
		return 0
	}
	pa, pb := t.piece(lo), t.piece(hi)
	a, b := t.list(pa), t.list(pb)
	if pa == pb {
		b = nil
	}
	var s float64
	for len(a) > 0 || len(b) > 0 {
		var p int32
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			p, a = a[0], a[1:]
		case len(a) == 0 || b[0] < a[0]:
			p, b = b[0], b[1:]
		default: // a position in both lists counts once
			p, a, b = a[0], a[1:], b[1:]
		}
		s += coefs[p].Value * t.rangeFactor(coefs[p].Index, lo, hi)
	}
	return s
}

// rangeFactor is basisRangeSum(i, lo, hi, u) for a coefficient whose
// support holds lo or hi, with the cached roots.
func (t *pieceTable) rangeFactor(i, lo, hi int64) float64 {
	if i == 0 {
		return float64(hi-lo+1) / t.sqrtU
	}
	j, start, end := t.support(i)
	mid := start + (end-start)/2
	neg := overlap(lo, hi+1, start, mid)
	pos := overlap(lo, hi+1, mid, end)
	return float64(pos-neg) / t.sqrtLen[j]
}

// posTerm is one matched ancestor's contribution to a 2D estimate, tagged
// with its position in the representation's Coefs slice so terms can be
// summed in scan order.
type posTerm struct {
	pos  int32
	term float64
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

	// idxs[i] == coefs[ord[i]].Index — the flat packed-index column that
	// append2DTarget binary-searches for both point and range estimates.
	idxs []int64

	// sqrtU and sqrtLen[j] are the roots of u and u>>j for the range
	// path's divisions — dividing by a cached correctly-rounded root gives
	// the same bits as recomputing math.Sqrt per term (and is NOT the same
	// as multiplying by a cached inverse, which rounds differently).
	sqrtU   float64
	sqrtLen []float64
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
	t.sqrtLen = make([]float64, t.logu)
	for j := uint(0); j < t.logu; j++ {
		t.sqrtLen[j] = math.Sqrt(float64(t.u >> j))
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
			terms = t.append2DTarget(coefs, terms, glo, ghi, base+yi[b], xb[a]*yb[b])
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
