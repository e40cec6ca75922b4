// Package heap provides small bounded heaps used throughout the library to
// maintain top-k / bottom-k sets of scored items in one pass.
//
// The paper's mappers keep "two priority queues to store the top-k and
// bottom-k wavelet coefficients" (Appendix A); the reducers select the k
// coefficients of largest magnitude with a size-k priority queue (Section
// 2.1). This package implements exactly those bounded selections without
// pulling in container/heap interface boilerplate at every call site.
package heap

// Item is a scored item with an integer identity. Score semantics (signed
// value, magnitude, count) are chosen by the caller.
type Item struct {
	ID    int64
	Score float64
}

// TopK maintains the k items with the largest Score seen so far, under
// the strict total order "larger Score first, ties by ascending ID" — so
// the retained set (not just its sorted presentation) is deterministic
// even when equal scores straddle the admission boundary. Incremental
// maintainers that repair a top-k partition in place rely on agreeing
// with this selection exactly.
// The zero value is not usable; construct with NewTopK.
type TopK struct {
	k    int
	data []Item // min-heap: data[0] is the weakest retained item
}

// NewTopK returns a TopK retaining the k largest-scored items.
// k must be >= 0; k == 0 retains nothing.
func NewTopK(k int) *TopK {
	return &TopK{k: k, data: make([]Item, 0, max(k, 0))}
}

// K returns the bound k.
func (h *TopK) K() int { return h.k }

// Len returns the number of retained items (<= k).
func (h *TopK) Len() int { return len(h.data) }

// Push offers an item and reports whether it was admitted: it is
// retained iff it is among the k largest seen.
func (h *TopK) Push(it Item) bool {
	if h.k == 0 {
		return false
	}
	if len(h.data) < h.k {
		h.data = append(h.data, it)
		h.siftUp(len(h.data) - 1)
		return true
	}
	if !weakerItem(h.data[0], it) {
		return false
	}
	h.data[0] = it
	h.siftDown(0)
	return true
}

// weakerItem reports whether a sorts strictly after b under the total
// order (Score desc, ID asc) — i.e. a loses the retention tie-break.
func weakerItem(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Min returns the smallest retained score and whether the heap is non-empty.
// When Len() == k this is the admission threshold.
func (h *TopK) Min() (Item, bool) {
	if len(h.data) == 0 {
		return Item{}, false
	}
	return h.data[0], true
}

// Full reports whether k items are retained.
func (h *TopK) Full() bool { return len(h.data) >= h.k && h.k > 0 }

// Items returns the retained items in unspecified order. The returned slice
// is a copy.
func (h *TopK) Items() []Item {
	out := make([]Item, len(h.data))
	copy(out, h.data)
	return out
}

// Sorted returns the retained items sorted by decreasing Score.
func (h *TopK) Sorted() []Item {
	out := h.Items()
	// Simple insertion-friendly selection: heaps are tiny (k <= ~100).
	sortByScoreDesc(out)
	return out
}

func (h *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !weakerItem(h.data[i], h.data[parent]) {
			return
		}
		h.data[parent], h.data[i] = h.data[i], h.data[parent]
		i = parent
	}
}

func (h *TopK) siftDown(i int) {
	n := len(h.data)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && weakerItem(h.data[l], h.data[small]) {
			small = l
		}
		if r < n && weakerItem(h.data[r], h.data[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.data[i], h.data[small] = h.data[small], h.data[i]
		i = small
	}
}

// BottomK maintains the k items with the smallest Score seen so far.
// It is implemented as a TopK over negated scores.
type BottomK struct {
	inner TopK
}

// NewBottomK returns a BottomK retaining the k smallest-scored items.
func NewBottomK(k int) *BottomK {
	return &BottomK{inner: TopK{k: k, data: make([]Item, 0, max(k, 0))}}
}

// K returns the bound k.
func (h *BottomK) K() int { return h.inner.k }

// Len returns the number of retained items.
func (h *BottomK) Len() int { return h.inner.Len() }

// Full reports whether k items are retained.
func (h *BottomK) Full() bool { return h.inner.Full() }

// Push offers an item and reports whether it was admitted: it is
// retained iff among the k smallest seen.
func (h *BottomK) Push(it Item) bool {
	return h.inner.Push(Item{ID: it.ID, Score: -it.Score})
}

// Max returns the largest retained score (the admission threshold when full).
func (h *BottomK) Max() (Item, bool) {
	it, ok := h.inner.Min()
	if !ok {
		return Item{}, false
	}
	return Item{ID: it.ID, Score: -it.Score}, true
}

// Items returns the retained items (original scores) in unspecified order.
func (h *BottomK) Items() []Item {
	out := h.inner.Items()
	for i := range out {
		out[i].Score = -out[i].Score
	}
	return out
}

// Sorted returns the retained items sorted by increasing Score.
func (h *BottomK) Sorted() []Item {
	out := h.Items()
	sortByScoreDesc(out)
	// reverse: ascending
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// sortByScoreDesc sorts items by decreasing score with ties broken by
// ascending ID so that results are deterministic across runs.
func sortByScoreDesc(items []Item) {
	// Heaps here are small (k on the order of tens); insertion sort keeps
	// this allocation-free and deterministic.
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i - 1
		for j >= 0 && less(it, items[j]) {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = it
	}
}

func less(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
