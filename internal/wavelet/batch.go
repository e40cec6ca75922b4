package wavelet

import (
	"slices"
	"sort"
	"sync"
)

// The vectorized batch executor.
//
// A scalar point estimate walks the query key's root-to-leaf ancestor
// path, binary-searching each error-tree level for the one coefficient
// index that can contribute — O(log u · log k) data-dependent loads per
// query. For a batch of n queries that search repeats per query, even
// though at level j the batch's n ancestor targets are a monotone
// function of the sorted keys and level j's coefficient indices are
// already stored sorted (errTree.ord / errTree.idxs).
//
// The batch executor exploits that: sort the query keys once, then sweep
// every level exactly once with a merge join — one forward cursor over
// the level's sorted index array, advanced monotonically as the sorted
// queries' ancestor targets increase. Each level costs O(n + k_level)
// sequential comparisons instead of n binary searches, ancestor targets
// come from shifts instead of divisions, and adjacent queries sharing an
// ancestor (the common case in the dense top levels) reuse the matched
// run without rescanning. Range queries walk the same sweep with two
// sorted boundary walkers per query (2n walkers), mirroring rangeSum's
// kLo/kHi probes including its "probe kHi only when it differs" dedup.
// 2D ranges sweep the row-group table with the same walker scheme on the
// x axis and probe each matched row's y-axis boundary candidates.
//
// Every level sweep parks its cursor with one binary search at the first
// query's target instead of scanning from the level start, so a sweep
// costs only the share of the level its queries span — also what lets
// the measured-only fan-out in parallel.go sweep contiguous segments of
// the sorted batch independently.
//
// # Bit-identical to the scalar path
//
// PointEstimate / RangeSum stay the oracle. Per query the sweep matches
// exactly the term multiset the scalar walk matches (same levels, same
// targets, same duplicate runs) and computes each term with the same
// arithmetic — precomputed ±1/sqrt and /sqrt factors that are bitwise
// equal to the scalar path's per-query derivations (math.Sqrt is
// correctly rounded, so caching a root changes nothing). Matched terms
// are collected in a flat structure-of-arrays arena (parallel tq/terms
// columns), grouped per query with one counting-sort scatter, and each
// query's group is finished with the same sumByPos the scalar path uses;
// a query's matched coefficient positions are distinct, so the
// position-sorted summation order — and therefore every partial sum's
// rounding — is identical no matter what order the sweep discovered the
// terms in.
//
// All scratch state lives in a pooled arena, so steady-state batches
// allocate nothing.

// batchScratch is one batch's reusable state: the sorted query order,
// the flat term arena and its per-query offset table, and clamped range
// bounds. Pooled; every slice is length-reset per use.
type batchScratch struct {
	qord  []int32   // in-domain query indexes, sorted by key
	word  []int32   // range boundary walkers (query<<1 | isHi), sorted by boundary
	pk    []int64   // packed key<<shift|index sort buffer (comparator-free sort)
	tq    []int32   // arena column: owning query index per term
	terms []posTerm // arena column: the matched terms, sweep order
	qoff  []int32   // counting-sort offsets, len n+1
	flat  []posTerm // terms scattered contiguously per query
	klo   []int64   // clamped range lows (x axis in 2D), indexed by query
	khi   []int64   // clamped range highs (x axis in 2D), indexed by query
	kylo  []int64   // clamped 2D range lows, y axis
	kyhi  []int64   // clamped 2D range highs, y axis
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

// sortPointQueries zeroes out, drops out-of-domain keys, and returns the
// surviving query indexes sorted by key (stored in sc.qord).
func (t *errTree) sortPointQueries(sc *batchScratch, xs []int64, out []float64) []int32 {
	qord := sc.qord[:0]
	if t.u <= 1<<31 {
		// Comparator-free sort: pack key<<31|index into one int64 so
		// slices.Sort runs without closure calls. Equal keys tie-break
		// by index; per-query sums are order-independent (sumByPos
		// canonicalizes), so the result is still bit-identical.
		pk := sc.pk[:0]
		for i, x := range xs {
			out[i] = 0
			if x >= 0 && x < t.u {
				pk = append(pk, x<<31|int64(i))
			}
		}
		slices.Sort(pk)
		for _, v := range pk {
			qord = append(qord, int32(v&(1<<31-1)))
		}
		sc.pk = pk
	} else {
		for i, x := range xs {
			out[i] = 0
			if x >= 0 && x < t.u {
				qord = append(qord, int32(i))
			}
		}
		slices.SortFunc(qord, func(a, b int32) int {
			xa, xb := xs[a], xs[b]
			switch {
			case xa < xb:
				return -1
			case xa > xb:
				return 1
			}
			return 0
		})
	}
	sc.qord = qord
	return qord
}

// sweepPoints runs the per-level merge joins for a key-sorted slice of
// point queries, pushing every matched term into sc's arena. qord may be
// any contiguous segment of a sorted batch: each level's cursor is
// binary-searched to the segment's first target, which parks it exactly
// where a linear advance from the level start would — later targets are
// monotone, so every walker still lands on its full duplicate run.
func (t *errTree) sweepPoints(sc *batchScratch, coefs []Coef, xs []int64, qord []int32) {
	if len(qord) == 0 {
		return
	}
	// Level 0: every in-domain query matches the average coefficient(s).
	if s0, e0 := int(t.off[0]), int(t.off[1]); s0 < e0 {
		b := t.invSqrtU // == 1/math.Sqrt(float64(t.u)), the scalar factor
		for _, qi := range qord {
			for i := s0; i < e0; i++ {
				p := t.ord[i]
				sc.push(qi, p, coefs[p].Value*b)
			}
		}
	}

	// Detail levels: one merge join per level. A query's ancestor target
	// at detail level j is 2^j + x>>(logu-j) — non-decreasing in sorted
	// key order — so a single forward cursor replaces per-query searches.
	for j := uint(0); j < t.logu; j++ {
		s, e := int(t.off[j+1]), int(t.off[j+2])
		if s == e {
			continue
		}
		shift := t.logu - j // rangeLen = 1<<shift
		base := int64(1) << j
		val := t.invSqrtLen[j]
		first := base + xs[qord[0]]>>shift
		cur := s + sort.Search(e-s, func(i int) bool { return t.idxs[s+i] >= first })
		for _, qi := range qord {
			x := xs[qi]
			target := base + x>>shift
			for cur < e && t.idxs[cur] < target {
				cur++
			}
			if cur == e {
				break // later queries have even larger targets
			}
			if t.idxs[cur] != target {
				continue
			}
			// basisAtLevel's sign: negative iff x mod rangeLen lands in
			// the first half, i.e. bit shift-1 of x is clear.
			b := val
			if x>>(shift-1)&1 == 0 {
				b = -val
			}
			// The cursor stays at the run start so a following query with
			// the same ancestor rematches it without rescanning.
			for m := cur; m < e && t.idxs[m] == target; m++ {
				p := t.ord[m]
				sc.push(qi, p, coefs[p].Value*b)
			}
		}
	}
}

// BatchPoints answers n point queries at once: out[i] = PointEstimate
// of xs[i], bit for bit. len(out) must equal len(xs). Keys may repeat
// and arrive in any order; keys outside [0, u) estimate 0, exactly as
// the scalar path does. Steady-state calls are allocation-free.
func (r *Representation) BatchPoints(xs []int64, out []float64) {
	if len(out) != len(xs) {
		panic("wavelet: BatchPoints slice length mismatch")
	}
	if r.tree == nil {
		for i, x := range xs {
			out[i] = r.PointEstimate(x)
		}
		return
	}
	r.tree.batchPoints(r.Coefs, xs, out)
}

func (t *errTree) batchPoints(coefs []Coef, xs []int64, out []float64) {
	n := len(xs)
	if n == 0 {
		return
	}
	sc := batchScratchPool.Get().(*batchScratch)
	qord := t.sortPointQueries(sc, xs, out)
	sc.resetArena(n)
	t.sweepPoints(sc, coefs, xs, qord)
	sc.finishFlat(qord, out)
	batchScratchPool.Put(sc)
}

// clampRangeQueries zeroes out, clamps each [los[i], his[i]] to [0, u)
// into sc.klo/sc.khi, and returns the non-empty query indexes in input
// order (stored in sc.qord).
func clampRangeQueries(sc *batchScratch, u int64, los, his []int64, out []float64) []int32 {
	n := len(los)
	if cap(sc.klo) < n {
		sc.klo = make([]int64, n)
		sc.khi = make([]int64, n)
	}
	sc.klo, sc.khi = sc.klo[:n], sc.khi[:n]
	qis := sc.qord[:0]
	for i := 0; i < n; i++ {
		out[i] = 0
		lo, hi := los[i], his[i]
		if lo < 0 {
			lo = 0
		}
		if hi >= u {
			hi = u - 1
		}
		if lo > hi {
			continue
		}
		sc.klo[i], sc.khi[i] = lo, hi
		qis = append(qis, int32(i))
	}
	sc.qord = qis
	return qis
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

// sweepRangeLevels runs the per-level merge joins for a set of clamped
// range queries (qis) and their sorted boundary walkers (word), pushing
// every matched term into sc's arena. Each level's cursor is
// binary-searched to the first walker's target.
func (t *errTree) sweepRangeLevels(sc *batchScratch, coefs []Coef, qis, word []int32, klo, khi []int64) {
	if len(word) == 0 {
		return
	}
	// Level 0: every active query matches the average coefficient(s) with
	// the scalar factor (hi-lo+1)/sqrt(u).
	if s0, e0 := int(t.off[0]), int(t.off[1]); s0 < e0 {
		for _, qi := range qis {
			b := float64(khi[qi]-klo[qi]+1) / t.sqrtU
			for i := s0; i < e0; i++ {
				p := t.ord[i]
				sc.push(qi, p, coefs[p].Value*b)
			}
		}
	}

	// Detail levels: merge join of sorted boundary walkers against the
	// level's index array, mirroring rangeSum — the lo walker always
	// probes its dyadic cell, the hi walker only when it differs (the
	// scalar path's double-count guard).
	for j := uint(0); j < t.logu; j++ {
		s, e := int(t.off[j+1]), int(t.off[j+2])
		if s == e {
			continue
		}
		shift := t.logu - j
		base := int64(1) << j
		rangeLen := t.u >> j
		sq := t.sqrtLen[j]
		w0 := word[0]
		k0 := klo[w0>>1] >> shift
		if w0&1 != 0 {
			k0 = khi[w0>>1] >> shift
		}
		first := base + k0
		cur := s + sort.Search(e-s, func(i int) bool { return t.idxs[s+i] >= first })
		for _, w := range word {
			qi := w >> 1
			lo, hi := klo[qi], khi[qi]
			var k int64
			if w&1 != 0 {
				k = hi >> shift
				if k == lo>>shift {
					continue
				}
			} else {
				k = lo >> shift
			}
			target := base + k
			for cur < e && t.idxs[cur] < target {
				cur++
			}
			if cur == e {
				break
			}
			if t.idxs[cur] != target {
				continue
			}
			// appendRangeTerms' arithmetic, with the cached level root.
			start := k << shift
			mid := start + rangeLen/2
			end := start + rangeLen
			neg := overlap(lo, hi+1, start, mid)
			pos := overlap(lo, hi+1, mid, end)
			b := float64(pos-neg) / sq
			for m := cur; m < e && t.idxs[m] == target; m++ {
				p := t.ord[m]
				sc.push(qi, p, coefs[p].Value*b)
			}
		}
	}
}

// BatchRanges answers n range-sum queries at once: out[i] = RangeSum of
// [los[i], his[i]], bit for bit, with the scalar path's clamp contract
// (bounds clamped to the domain, empty intersection estimates 0).
// len(los), len(his) and len(out) must match. Steady-state calls are
// allocation-free.
func (r *Representation) BatchRanges(los, his []int64, out []float64) {
	if len(his) != len(los) || len(out) != len(los) {
		panic("wavelet: BatchRanges slice length mismatch")
	}
	if r.tree == nil {
		for i := range los {
			out[i] = r.RangeSum(los[i], his[i])
		}
		return
	}
	r.tree.batchRanges(r.Coefs, los, his, out)
}

func (t *errTree) batchRanges(coefs []Coef, los, his []int64, out []float64) {
	n := len(los)
	if n == 0 {
		return
	}
	sc := batchScratchPool.Get().(*batchScratch)
	qis := clampRangeQueries(sc, t.u, los, his, out)
	sc.resetArena(n)
	word := buildBoundaryWalkers(sc, qis, sc.klo, sc.khi, t.u <= 1<<31)
	t.sweepRangeLevels(sc, coefs, qis, word, sc.klo, sc.khi)
	sc.finishFlat(qis, out)
	batchScratchPool.Put(sc)
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
