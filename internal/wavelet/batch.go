package wavelet

import (
	"slices"
	"sort"
	"sync"
)

// The 2D batch executor.
//
// A scalar 2D point estimate walks the cell's (log2(u)+1)² ancestor pairs,
// binary-searching the row-group table for each — data-dependent loads
// per query. For a batch of n cells that search repeats per query, even
// though for a fixed x-level the batch's row targets are a monotone
// function of the sorted x keys and the row table is already sorted
// (errTree2D.gkey / errTree2D.idxs).
//
// The batch executor exploits that: sort the cells once by (x, y), then
// sweep the row table with one forward cursor per x-level, and within a
// matched row group merge-join each y-level's ascending targets — cells
// sharing an x run compute its ancestor path once. 2D ranges sweep the
// row-group table with two sorted boundary walkers per query (2n walkers)
// on the x axis, mirroring rangeSum's kLo/kHi probes including its "probe
// kHi only when it differs" dedup, and probe each matched row's y-axis
// boundary candidates. Every sweep parks its cursor with one binary
// search at the first query's target instead of scanning from the table
// start. (1D batches need none of this: a piece-table lookup is one binary
// search, so Representation.BatchPoints / BatchRanges loop the scalar
// estimates.)
//
// # Bit-identical to the scalar path
//
// PointEstimate / RangeSum stay the oracle. Per query the sweep matches
// exactly the term multiset the scalar walk matches (same targets, same
// duplicate runs) and computes each term with the same arithmetic —
// precomputed ±1/sqrt and /sqrt factors that are bitwise equal to the
// scalar path's per-query derivations (math.Sqrt is correctly rounded, so
// caching a root changes nothing). Matched terms are collected in a flat
// structure-of-arrays arena (parallel tq/terms columns), grouped per query
// with one counting-sort scatter, and each query's group is finished with
// the same sumByPos the scalar path uses; a query's matched coefficient
// positions are distinct, so the position-sorted summation order — and
// therefore every partial sum's rounding — is identical no matter what
// order the sweep discovered the terms in.
//
// All scratch state lives in a pooled arena, so steady-state batches
// allocate nothing.

// batchScratch is one batch's reusable state: the sorted query order,
// the flat term arena and its per-query offset table, and clamped range
// bounds. Pooled; every slice is length-reset per use.
type batchScratch struct {
	qord  []int32   // active query indexes: cells sorted by (x, y), ranges in input order
	word  []int32   // range boundary walkers (query<<1 | isHi), sorted by boundary
	pk    []int64   // packed key<<shift|index sort buffer (comparator-free sort)
	tq    []int32   // arena column: owning query index per term
	terms []posTerm // arena column: the matched terms, sweep order
	qoff  []int32   // counting-sort offsets, len n+1
	flat  []posTerm // terms scattered contiguously per query
	klo   []int64   // clamped range lows, x axis, indexed by query
	khi   []int64   // clamped range highs, x axis, indexed by query
	kylo  []int64   // clamped range lows, y axis
	kyhi  []int64   // clamped range highs, y axis
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// resetArena clears the term arena and zeroes the offset table for a
// batch of n queries.
func (sc *batchScratch) resetArena(n int) {
	sc.tq = sc.tq[:0]
	sc.terms = sc.terms[:0]
	if cap(sc.qoff) < n+1 {
		sc.qoff = make([]int32, n+1)
	}
	sc.qoff = sc.qoff[:n+1]
	for i := range sc.qoff {
		sc.qoff[i] = 0
	}
}

// push appends one matched term owned by query qi.
func (sc *batchScratch) push(qi int32, p int32, term float64) {
	sc.tq = append(sc.tq, qi)
	sc.terms = append(sc.terms, posTerm{p, term})
}

// finishFlat groups the arena by query with one counting-sort scatter —
// count into qoff, prefix-sum, then one sequential pass moving each term
// into its query's contiguous run in flat — and sums each active query's
// run in scan order into out: two branch-free sequential passes over the
// arena, no per-term pointer chase.
func (sc *batchScratch) finishFlat(active []int32, out []float64) {
	qoff := sc.qoff
	for _, qi := range sc.tq {
		qoff[qi+1]++
	}
	for i := 1; i < len(qoff); i++ {
		qoff[i] += qoff[i-1]
	}
	if cap(sc.flat) < len(sc.terms) {
		sc.flat = make([]posTerm, len(sc.terms))
	}
	flat := sc.flat[:cap(sc.flat)]
	for i, qi := range sc.tq {
		flat[qoff[qi]] = sc.terms[i]
		qoff[qi]++
	}
	sc.flat = flat
	// The scatter advanced qoff[qi] to the end of query qi's run; its
	// start is the previous query's end.
	for _, qi := range active {
		s := int32(0)
		if qi > 0 {
			s = qoff[qi-1]
		}
		out[qi] = sumByPos(flat[s:qoff[qi]])
	}
}

// buildBoundaryWalkers packs each listed query's two boundary walkers
// (query<<1 for lo, query<<1|1 for hi) and sorts them by boundary key so
// each level's walker targets are monotone. packed selects the
// comparator-free key<<31|walker sort (valid when the domain fits 31
// bits). The sorted walkers are stored in sc.word and returned.
func buildBoundaryWalkers(sc *batchScratch, qis []int32, klo, khi []int64, packed bool) []int32 {
	word := sc.word[:0]
	if packed {
		pk := sc.pk[:0]
		for _, qi := range qis {
			pk = append(pk, klo[qi]<<31|int64(qi)<<1, khi[qi]<<31|int64(qi)<<1|1)
		}
		slices.Sort(pk)
		for _, v := range pk {
			word = append(word, int32(v&(1<<31-1)))
		}
		sc.pk = pk
	} else {
		for _, qi := range qis {
			word = append(word, qi<<1, qi<<1|1)
		}
		slices.SortFunc(word, func(a, b int32) int {
			ka, kb := klo[a>>1], klo[b>>1]
			if a&1 != 0 {
				ka = khi[a>>1]
			}
			if b&1 != 0 {
				kb = khi[b>>1]
			}
			switch {
			case ka < kb:
				return -1
			case ka > kb:
				return 1
			}
			return 0
		})
	}
	sc.word = word
	return word
}

// sortPointQueries2D zeroes out, drops off-grid cells, and returns the
// surviving query indexes sorted by (x, y): queries sharing an x-run
// compute the x ancestor path once, and within a run the ascending y
// keys make each (x-level, y-level) pair's packed targets monotone.
func (t *errTree2D) sortPointQueries2D(sc *batchScratch, xs, ys []int64, out []float64) []int32 {
	qord := sc.qord[:0]
	for i := range xs {
		out[i] = 0
		if xs[i] >= 0 && xs[i] < t.u && ys[i] >= 0 && ys[i] < t.u {
			qord = append(qord, int32(i))
		}
	}
	slices.SortFunc(qord, func(a, b int32) int {
		switch {
		case xs[a] < xs[b]:
			return -1
		case xs[a] > xs[b]:
			return 1
		case ys[a] < ys[b]:
			return -1
		case ys[a] > ys[b]:
			return 1
		}
		return 0
	})
	sc.qord = qord
	return qord
}

// sweepPoints2D runs the row-group merge joins for an (x, y)-sorted
// slice of 2D point queries. Each x-level's row cursor is lazily
// binary-searched to its first row target instead of scanning the row
// table from the start.
func (t *errTree2D) sweepPoints2D(sc *batchScratch, coefs []Coef, xs, ys []int64, qord []int32) {
	// Per-x-level cursors into the row-group table: for a fixed x-level a,
	// the row index xi[a] is non-decreasing as x increases, so each
	// cursor only moves forward across the whole batch. -1 = unparked.
	var gcur [66]int
	for i := range gcur {
		gcur[i] = -1
	}
	var xi [64]int64
	var xb [64]float64
	nq := len(qord)
	for i := 0; i < nq; {
		x := xs[qord[i]]
		j := i + 1
		for j < nq && xs[qord[j]] == x {
			j++
		}
		run := qord[i:j]
		nx := t.ancestorPaths(x, &xi, &xb)
		for a := 0; a < nx; a++ {
			if gcur[a] < 0 {
				xt := xi[a]
				gcur[a] = sort.Search(len(t.gkey), func(g int) bool { return t.gkey[g] >= xt })
			}
			for gcur[a] < len(t.gkey) && t.gkey[gcur[a]] < xi[a] {
				gcur[a]++
			}
			if gcur[a] == len(t.gkey) || t.gkey[gcur[a]] != xi[a] {
				continue
			}
			g := gcur[a]
			glo, ghi := int(t.goff[g]), int(t.goff[g+1])
			base := xi[a] * t.u
			bxa := xb[a]
			// One merge join per y-level within this row group; the run's
			// ascending y keys keep each join's targets monotone.
			for b := uint(0); b <= t.logu; b++ {
				cur := glo
				for _, qi := range run {
					y := ys[qi]
					var target int64
					var by float64
					if b == 0 {
						target = base
						by = t.invSqrtU
					} else {
						jj := b - 1
						shift := t.logu - jj
						target = base + int64(1)<<jj + y>>shift
						by = t.invSqrtLen[jj]
						if y>>(shift-1)&1 == 0 {
							by = -by
						}
					}
					for cur < ghi && t.idxs[cur] < target {
						cur++
					}
					if cur == ghi {
						break
					}
					if t.idxs[cur] != target {
						continue
					}
					bv := bxa * by
					for m := cur; m < ghi && t.idxs[m] == target; m++ {
						p := t.ord[m]
						sc.push(qi, p, coefs[p].Value*bv)
					}
				}
			}
		}
		i = j
	}
}

// BatchPoints answers n 2D point queries at once: out[i] = PointEstimate
// of (xs[i], ys[i]), bit for bit. len(xs), len(ys) and len(out) must
// match; off-grid cells estimate 0. Steady-state calls are
// allocation-free.
func (r *Representation2D) BatchPoints(xs, ys []int64, out []float64) {
	if len(ys) != len(xs) || len(out) != len(xs) {
		panic("wavelet: BatchPoints slice length mismatch")
	}
	if r.tree == nil {
		for i := range xs {
			out[i] = r.PointEstimate(xs[i], ys[i])
		}
		return
	}
	r.tree.batchPoints(r.Coefs, xs, ys, out)
}

func (t *errTree2D) batchPoints(coefs []Coef, xs, ys []int64, out []float64) {
	n := len(xs)
	if n == 0 {
		return
	}
	sc := batchScratchPool.Get().(*batchScratch)
	qord := t.sortPointQueries2D(sc, xs, ys, out)
	sc.resetArena(n)
	t.sweepPoints2D(sc, coefs, xs, ys, qord)
	sc.finishFlat(qord, out)
	batchScratchPool.Put(sc)
}

// clampRangeQueries2D zeroes out, clamps each query's x bounds into
// sc.klo/sc.khi and y bounds into sc.kylo/sc.kyhi, and returns the query
// indexes whose clamped rectangle is non-empty on both axes.
func (t *errTree2D) clampRangeQueries2D(sc *batchScratch, xlos, xhis, ylos, yhis []int64, out []float64) []int32 {
	n := len(xlos)
	if cap(sc.klo) < n {
		sc.klo = make([]int64, n)
		sc.khi = make([]int64, n)
	}
	if cap(sc.kylo) < n {
		sc.kylo = make([]int64, n)
		sc.kyhi = make([]int64, n)
	}
	sc.klo, sc.khi = sc.klo[:n], sc.khi[:n]
	sc.kylo, sc.kyhi = sc.kylo[:n], sc.kyhi[:n]
	qis := sc.qord[:0]
	for i := 0; i < n; i++ {
		out[i] = 0
		xlo, xhi := xlos[i], xhis[i]
		if xlo < 0 {
			xlo = 0
		}
		if xhi >= t.u {
			xhi = t.u - 1
		}
		ylo, yhi := ylos[i], yhis[i]
		if ylo < 0 {
			ylo = 0
		}
		if yhi >= t.u {
			yhi = t.u - 1
		}
		if xlo > xhi || ylo > yhi {
			continue
		}
		sc.klo[i], sc.khi[i] = xlo, xhi
		sc.kylo[i], sc.kyhi[i] = ylo, yhi
		qis = append(qis, int32(i))
	}
	sc.qord = qis
	return qis
}

// push2DTarget pushes the (possibly duplicated) coefficients whose
// packed index equals target within row group [glo, ghi), scaled by bv,
// into query qi's terms.
func (t *errTree2D) push2DTarget(sc *batchScratch, coefs []Coef, qi int32, glo, ghi int, target int64, bv float64) {
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
		sc.push(qi, p, coefs[p].Value*bv)
		lo++
	}
}

// pushRangeRow pushes one matched x-axis row's contributions to query
// qi: the y-axis average plus each y-level's boundary cell(s), scaled by
// the row's x factor bx — the same candidate set and arithmetic as the
// scalar rangeSum's rangeCandidates pass.
func (t *errTree2D) pushRangeRow(sc *batchScratch, coefs []Coef, qi int32, glo, ghi int, base int64, bx float64, ylo, yhi int64) {
	by := float64(yhi-ylo+1) / t.sqrtU
	t.push2DTarget(sc, coefs, qi, glo, ghi, base, bx*by)
	for j := uint(0); j < t.logu; j++ {
		rangeLen := t.u >> j
		kLo, kHi := ylo/rangeLen, yhi/rangeLen
		t.push2DTarget(sc, coefs, qi, glo, ghi, base+int64(1)<<j+kLo, bx*t.rangeFactor(j, kLo, ylo, yhi))
		if kHi != kLo {
			t.push2DTarget(sc, coefs, qi, glo, ghi, base+int64(1)<<j+kHi, bx*t.rangeFactor(j, kHi, ylo, yhi))
		}
	}
}

// sweepRanges2D runs the x-axis walker sweep over the row-group table
// for a set of clamped 2D range queries: the x average row and, per
// x-level, each walker's boundary row; every matched row probes the
// query's y-axis candidates within that row group. Each level's row
// cursor is binary-parked at the first walker's target.
func (t *errTree2D) sweepRanges2D(sc *batchScratch, coefs []Coef, qis, word []int32, xlo, xhi, ylo, yhi []int64) {
	if len(word) == 0 {
		return
	}
	// x-average row (row index 0, first in the ascending row table).
	if len(t.gkey) > 0 && t.gkey[0] == 0 {
		glo, ghi := int(t.goff[0]), int(t.goff[1])
		for _, qi := range qis {
			bx := float64(xhi[qi]-xlo[qi]+1) / t.sqrtU
			t.pushRangeRow(sc, coefs, qi, glo, ghi, 0, bx, ylo[qi], yhi[qi])
		}
	}
	// x detail levels: the 1D boundary-walker merge join, against the
	// row-group table instead of a coefficient level.
	for j := uint(0); j < t.logu; j++ {
		shift := t.logu - j
		base := int64(1) << j
		rangeLen := t.u >> j
		w0 := word[0]
		k0 := xlo[w0>>1] >> shift
		if w0&1 != 0 {
			k0 = xhi[w0>>1] >> shift
		}
		first := base + k0
		cur := sort.Search(len(t.gkey), func(g int) bool { return t.gkey[g] >= first })
		for _, w := range word {
			qi := w >> 1
			lo, hi := xlo[qi], xhi[qi]
			var k int64
			if w&1 != 0 {
				k = hi >> shift
				if k == lo>>shift {
					continue
				}
			} else {
				k = lo >> shift
			}
			row := base + k
			for cur < len(t.gkey) && t.gkey[cur] < row {
				cur++
			}
			if cur == len(t.gkey) {
				break
			}
			if t.gkey[cur] != row {
				continue
			}
			start := k << shift
			mid := start + rangeLen/2
			end := start + rangeLen
			neg := overlap(lo, hi+1, start, mid)
			pos := overlap(lo, hi+1, mid, end)
			bx := float64(pos-neg) / t.sqrtLen[j]
			t.pushRangeRow(sc, coefs, qi, int(t.goff[cur]), int(t.goff[cur+1]), row*t.u, bx, ylo[qi], yhi[qi])
		}
	}
}

// BatchRanges answers n 2D range-sum queries at once: out[i] = RangeSum
// of [xlos[i], xhis[i]] × [ylos[i], yhis[i]], bit for bit, with the
// scalar path's per-axis clamp contract. All five slice lengths must
// match. Steady-state calls are allocation-free.
func (r *Representation2D) BatchRanges(xlos, xhis, ylos, yhis []int64, out []float64) {
	n := len(xlos)
	if len(xhis) != n || len(ylos) != n || len(yhis) != n || len(out) != n {
		panic("wavelet: BatchRanges slice length mismatch")
	}
	if r.tree == nil {
		for i := range xlos {
			out[i] = r.RangeSum(xlos[i], xhis[i], ylos[i], yhis[i])
		}
		return
	}
	r.tree.batchRanges(r.Coefs, xlos, xhis, ylos, yhis, out)
}

func (t *errTree2D) batchRanges(coefs []Coef, xlos, xhis, ylos, yhis []int64, out []float64) {
	n := len(xlos)
	if n == 0 {
		return
	}
	sc := batchScratchPool.Get().(*batchScratch)
	qis := t.clampRangeQueries2D(sc, xlos, xhis, ylos, yhis, out)
	sc.resetArena(n)
	word := buildBoundaryWalkers(sc, qis, sc.klo, sc.khi, t.u <= 1<<31)
	t.sweepRanges2D(sc, coefs, qis, word, sc.klo, sc.khi, sc.kylo, sc.kyhi)
	sc.finishFlat(qis, out)
	batchScratchPool.Put(sc)
}
