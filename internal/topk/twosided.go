// Package topk implements the paper's two-sided modification of TPUT
// (Cao & Wang [7]; Section 3): exact top-k by aggregate *magnitude* over
// positive and negative scores, which plain TPUT cannot provide because
// unseen scores may be very negative.
//
// The protocol here is pure (in-memory score lists per node) with exact
// per-round message accounting; internal/core instantiates the same logic
// inside MapReduce rounds. Keeping a reference implementation lets us
// property-test protocol correctness against brute force independently of
// the MapReduce machinery.
package topk

import (
	"math"
	"sort"

	"wavelethist/internal/heap"
)

// Scores holds one node's local item scores (absent = 0).
type Scores map[int64]float64

// Item is an (id, aggregate score) result.
type Item struct {
	ID    int64
	Score float64
}

// Stats records protocol communication: the number of (item, score)
// messages uploaded to the coordinator per round, and the candidate-set
// broadcast size of round 3.
type Stats struct {
	Round1Items   int
	Round2Items   int
	Round3Items   int
	CandidateSize int // |R| after round-2 pruning (broadcast to nodes)
}

// TotalItems is the total uploaded (item, score) messages.
func (s Stats) TotalItems() int { return s.Round1Items + s.Round2Items + s.Round3Items }

// MagnitudeLowerBound is the two-sided threshold τ(x): given the upper
// bound τ⁺ and lower bound τ⁻ on an item's aggregate score, the provable
// lower bound on |score| is 0 when the bounds straddle zero, else the
// smaller magnitude. Shared by the reference protocol here and the
// MapReduce instantiation in internal/core.
func MagnitudeLowerBound(tauPlus, tauMinus float64) float64 {
	if (tauPlus >= 0) != (tauMinus >= 0) {
		return 0
	}
	return math.Min(math.Abs(tauPlus), math.Abs(tauMinus))
}

// MagnitudeUpperBound is the matching upper bound on |score|: the larger
// magnitude of the two bounds. Candidates are pruned when it cannot reach
// the round-2 threshold T2.
func MagnitudeUpperBound(tauPlus, tauMinus float64) float64 {
	return math.Max(math.Abs(tauPlus), math.Abs(tauMinus))
}

// TwoSided runs the paper's three-round modified TPUT (Section 3): exact
// top-k items by aggregate *magnitude* over signed local scores. It can be
// seen as interleaving two TPUT instances (one over the highest, one over
// the lowest scores) with magnitude-aware thresholds.
//
// Scores absent from a node's map are implicitly zero, exactly like a
// split's zero wavelet coefficients: "the k-th highest score a node sends"
// is therefore floored at 0 (and the k-th lowest capped at 0) when a node
// holds fewer than k positive (negative) scores, since conceptual zeros
// pad the ranking. This keeps the τ⁺/τ⁻ bounds sound for sparse nodes.
func TwoSided(nodes []Scores, k int) ([]Item, Stats) {
	var st Stats
	m := len(nodes)
	if m == 0 || k <= 0 {
		return nil, st
	}

	// ---- Round 1: each node sends its k highest and k lowest items. ----
	sent := make([]map[int64]bool, m)     // per node: ids already uploaded
	known := make([]map[int64]float64, m) // coordinator: exact scores per node
	tildeHigh := make([]float64, m)       // w̃⁺_j: k-th highest sent, floored at 0
	tildeLow := make([]float64, m)        // w̃⁻_j: k-th lowest sent, capped at 0
	for j, n := range nodes {
		sent[j] = make(map[int64]bool)
		known[j] = make(map[int64]float64)
		hi := heap.NewTopK(k)
		lo := heap.NewBottomK(k)
		for id, v := range n {
			hi.Push(heap.Item{ID: id, Score: v})
			lo.Push(heap.Item{ID: id, Score: v})
		}
		upload := func(items []heap.Item) {
			for _, it := range items {
				if !sent[j][it.ID] {
					sent[j][it.ID] = true
					known[j][it.ID] = it.Score
					st.Round1Items++
				}
			}
		}
		hiItems, loItems := hi.Sorted(), lo.Sorted()
		upload(hiItems)
		upload(loItems)
		// Thresholds for unsent items at this node (zeros pad the domain).
		if len(hiItems) == k {
			tildeHigh[j] = math.Max(hiItems[k-1].Score, 0)
		}
		if len(loItems) == k {
			tildeLow[j] = math.Min(loItems[k-1].Score, 0)
		}
	}

	// Coordinator: lower bound τ(x) on |r(x)| for every item seen.
	seen := make(map[int64]bool)
	for j := range known {
		for id := range known[j] {
			seen[id] = true
		}
	}
	tau := func(id int64, missHigh, missLow func(j int) float64) (tauPlus, tauMinus float64) {
		for j := 0; j < m; j++ {
			if v, ok := known[j][id]; ok {
				tauPlus += v
				tauMinus += v
				continue
			}
			tauPlus += missHigh(j)
			tauMinus += missLow(j)
		}
		return
	}

	t1Heap := heap.NewTopK(k)
	for id := range seen {
		tp, tm := tau(id,
			func(j int) float64 { return tildeHigh[j] },
			func(j int) float64 { return tildeLow[j] })
		t1Heap.Push(heap.Item{ID: id, Score: MagnitudeLowerBound(tp, tm)})
	}
	var t1 float64
	if t1Heap.Full() {
		it, _ := t1Heap.Min()
		t1 = it.Score
	}
	thresh := t1 / float64(m)

	// ---- Round 2: nodes upload all unsent items with |score| > T1/m. ----
	for j, n := range nodes {
		for id, v := range n {
			if sent[j][id] {
				continue
			}
			if math.Abs(v) > thresh {
				sent[j][id] = true
				known[j][id] = v
				seen[id] = true
				st.Round2Items++
			}
		}
	}

	// Refine bounds with the round-2 guarantee |r_j(x)| <= T1/m for every
	// unsent (j, x); compute T2; prune R.
	type bounds struct{ plus, minus float64 }
	refined := make(map[int64]bounds, len(seen))
	t2Heap := heap.NewTopK(k)
	for id := range seen {
		tp, tm := tau(id,
			func(int) float64 { return thresh },
			func(int) float64 { return -thresh })
		refined[id] = bounds{tp, tm}
		t2Heap.Push(heap.Item{ID: id, Score: MagnitudeLowerBound(tp, tm)})
	}
	var t2 float64
	if t2Heap.Full() {
		it, _ := t2Heap.Min()
		t2 = it.Score
	}
	candidates := make([]int64, 0, len(seen))
	for id, b := range refined {
		if MagnitudeUpperBound(b.plus, b.minus) >= t2 {
			candidates = append(candidates, id)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	st.CandidateSize = len(candidates)

	// ---- Round 3: nodes send unsent scores for the candidate set R. ----
	final := make(map[int64]float64, len(candidates))
	for _, id := range candidates {
		var s float64
		for j, n := range nodes {
			if v, ok := known[j][id]; ok {
				s += v
				continue
			}
			if v, ok := n[id]; ok {
				s += v
				st.Round3Items++
			}
		}
		final[id] = s
	}
	return selectTop(final, k, math.Abs), st
}

// selectTop returns the k items of m with the largest rank(score),
// ties by ascending id.
func selectTop(m map[int64]float64, k int, rank func(float64) float64) []Item {
	items := make([]Item, 0, len(m))
	for id, v := range m {
		items = append(items, Item{ID: id, Score: v})
	}
	sort.Slice(items, func(i, j int) bool {
		ri, rj := rank(items[i].Score), rank(items[j].Score)
		if ri != rj {
			return ri > rj
		}
		return items[i].ID < items[j].ID
	})
	if len(items) > k {
		items = items[:k]
	}
	return items
}
