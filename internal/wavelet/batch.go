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
// sharing an x run compute its ancestor path once. Each x-level's cursor
// is parked with one binary search at the first cell's target instead of
// scanning from the table start. 2D rectangles have no shared walk: one
// sweeping the x axis with two boundary walkers per rectangle cost
// 1.3–1.5× the scalar rangeSum per query at every batch size measured,
// so a batch answers them one RangeSum at a time. (1D batches need none
// of this either: a piece-table lookup is one guided search, so
// Representation.BatchPoints / BatchRanges loop the scalar estimates.)
//
// # Bit-identical to the scalar path
//
// PointEstimate stays the oracle. Per query the sweep matches
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

// batchScratch is one batch's reusable state: the sorted query order
// and the flat term arena with its per-query offset table. Pooled; every
// slice is length-reset per use.
type batchScratch struct {
	qord  []int32   // on-grid query indexes, sorted by (x, y)
	tq    []int32   // arena column: owning query index per term
	terms []posTerm // arena column: the matched terms, sweep order
	qoff  []int32   // counting-sort offsets, len n+1
	flat  []posTerm // terms scattered contiguously per query
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
