package wavelet

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// maxLevels bounds log2(u) for an int64 domain.
const maxLevels = 63

// StreamingTransformer computes non-zero Haar coefficients from keys fed in
// strictly increasing order, using O(log u) memory — the Gilbert et al.
// algorithm the paper cites for mappers ([20], Appendix A). Coefficients
// are emitted exactly once, as soon as their dyadic range closes.
type StreamingTransformer struct {
	u       int64
	logu    uint
	path    [maxLevels]float64 // partial detail sums per level, for the current path
	sqrtLen [maxLevels]float64 // sqrtLen[j] = sqrt(u>>j), the level-j normalizer
	curKey  int64              // last key fed, -1 initially
	avg     float64            // partial overall-average coefficient
	any     bool

	// Closed coefficients go to emit, or, when emit is nil, into win:
	// next[b] is where the next coefficient whose index has bit length b
	// lands (AppendSparseTransformSorted's level windows).
	emit func(Coef)
	win  []Coef
	next [maxLevels + 1]int
}

// NewStreamingTransformer creates a transformer over [0, u) that calls emit
// for every non-zero coefficient.
func NewStreamingTransformer(u int64, emit func(Coef)) *StreamingTransformer {
	t := new(StreamingTransformer)
	t.init(u)
	t.emit = emit
	return t
}

func (t *StreamingTransformer) init(u int64) {
	t.u, t.logu, t.curKey = u, Log2(u), -1
	t.sqrtLen[0] = math.Sqrt(float64(u)) // also the average's normalizer when logu is 0
	for j := uint(1); j < t.logu; j++ {
		t.sqrtLen[j] = math.Sqrt(float64(u >> j))
	}
}

// Feed adds count occurrences of key x. Keys must arrive in strictly
// increasing order.
func (t *StreamingTransformer) Feed(x int64, count float64) {
	if x < 0 || x >= t.u {
		panic("wavelet: key out of domain")
	}
	if x <= t.curKey {
		panic("wavelet: streaming keys must be strictly increasing")
	}
	if count == 0 {
		return
	}
	if t.any {
		// The ranges that do not contain x too are those no longer than
		// the highest bit in which it differs from the previous key.
		t.flushFrom(t.logu - uint(bits.Len64(uint64(t.curKey^x))) + 1)
	}
	t.curKey = x
	t.any = true
	// Every contribution is count divided by the level's table entry —
	// never a multiply by a reciprocal — so each partial sum is the exact
	// float a per-key math.Sqrt(u>>j) produces.
	t.avg += count / t.sqrtLen[0]
	path, sqrtLen := t.path[:t.logu], t.sqrtLen[:t.logu]
	for j := range path {
		// Level j's ranges have length 2^s, s = logu-j; x sits in the
		// left half of its range, contributing negatively, iff bit s-1
		// is clear. Flipping the sign bit is exact negation, and keeps
		// the loop free of a data-dependent branch.
		left := ^uint64(x>>(uint(len(path)-j)-1)) & 1
		contrib := math.Float64bits(count/sqrtLen[j]) ^ left<<63
		path[j] += math.Float64frombits(contrib)
	}
}

// flushFrom closes the current range of every level >= from, emitting
// its coefficient unless the contributions cancelled to exactly zero.
func (t *StreamingTransformer) flushFrom(from uint) {
	for j := from; j < t.logu; j++ {
		if v := t.path[j]; v != 0 {
			t.put(j+1, Coef{Index: int64(1)<<j + t.curKey>>(t.logu-j), Value: v})
		}
		t.path[j] = 0
	}
}

// put delivers a closed coefficient whose index has bit length b.
func (t *StreamingTransformer) put(b uint, c Coef) {
	if t.emit != nil {
		t.emit(c)
		return
	}
	t.win[t.next[b]] = c
	t.next[b]++
}

// Close flushes all pending coefficients (including the overall average).
// The transformer must not be used afterwards.
func (t *StreamingTransformer) Close() {
	if !t.any {
		return
	}
	t.flushFrom(0)
	if t.avg != 0 {
		t.put(0, Coef{Index: 0, Value: t.avg})
	}
	t.any = false
}

// SparseTransformSorted computes the non-zero Haar coefficients of a
// sorted list of (key, count) pairs in O(|v| log u), in ascending index
// order. It is the transform every mapper and reducer runs on its
// aggregated frequencies, in the simulated runtime and on a worker alike.
// The returned slice is the caller's.
func SparseTransformSorted(keys []int64, counts []float64, u int64) []Coef {
	return AppendSparseTransformSorted(nil, keys, counts, u)
}

// AppendSparseTransformSorted is SparseTransformSorted appending to dst,
// for callers that reuse the output buffer.
//
// The streaming transformer emits each level's coefficients in increasing
// index order, and indices are ordered by level (0, then 2^j + k). So no
// sort is needed: a first pass over the keys counts how many dyadic ranges
// each level will close, which gives every level a window of the output
// to write into, and the windows laid end to end are index-ascending by
// construction.
func AppendSparseTransformSorted(dst []Coef, keys []int64, counts []float64, u int64) []Coef {
	var t StreamingTransformer
	t.init(u)
	// steps[b] counts the adjacent fed keys whose highest differing bit
	// is b-1: such a step moves to a new range at every level whose
	// ranges are no longer than 2^(b-1). Out-of-domain keys land above
	// logu and are not read back; Feed rejects them before it writes.
	var steps [65]int
	prev, fed := int64(0), false
	for i, x := range keys {
		if counts[i] == 0 {
			continue
		}
		if fed {
			steps[bits.Len64(uint64(prev^x))]++
		}
		prev, fed = x, true
	}
	if !fed {
		return dst
	}
	// Windows by index bit length b: the average (index 0) at b = 0,
	// level j at b = j+1. Level 0 is one range; level j+1 has one more
	// than level j per step that crosses a level-(j+1) boundary.
	base := len(dst)
	t.next[0], t.next[1] = base, base+1
	ranges := 1
	for j := uint(0); j < t.logu; j++ {
		t.next[j+2] = t.next[j+1] + ranges
		ranges += steps[t.logu-j]
	}
	first := t.next
	total := first[t.logu+1]
	t.win = slices.Grow(dst, total-base)[:total]

	for i, x := range keys {
		t.Feed(x, counts[i])
	}
	t.Close()

	// A range whose contributions cancelled to exactly zero was counted
	// but not written: slide the later windows down over those gaps.
	w := base
	for b := uint(0); b <= t.logu; b++ {
		w += copy(t.win[w:], t.win[first[b]:t.next[b]])
	}
	return t.win[:w]
}

// FreqBuffers is a reusable (keys, counts) scratch pair for transforms
// that sort a frequency map, convert it, and discard the sorted form.
// Acquire with GetFreqBuffers, return with PutFreqBuffers; the slices
// returned by Load are only valid until the buffers are put back.
type FreqBuffers struct {
	Keys   []int64
	Counts []float64
}

var freqPool = sync.Pool{New: func() any { return new(FreqBuffers) }}

// GetFreqBuffers fetches a pooled scratch pair.
func GetFreqBuffers() *FreqBuffers { return freqPool.Get().(*FreqBuffers) }

// PutFreqBuffers returns a scratch pair to the pool.
func PutFreqBuffers(b *FreqBuffers) {
	b.Keys = b.Keys[:0]
	b.Counts = b.Counts[:0]
	freqPool.Put(b)
}

// Load fills the buffers with freq's sorted (key, count) pairs, the form
// SparseTransformSorted consumes, without allocating when the buffers
// have capacity.
func (b *FreqBuffers) Load(freq map[int64]float64) (keys []int64, counts []float64) {
	b.Keys = b.Keys[:0]
	for x := range freq {
		b.Keys = append(b.Keys, x)
	}
	slices.Sort(b.Keys)
	if cap(b.Counts) < len(b.Keys) {
		b.Counts = make([]float64, len(b.Keys))
	}
	b.Counts = b.Counts[:len(b.Keys)]
	for i, x := range b.Keys {
		b.Counts[i] = freq[x]
	}
	return b.Keys, b.Counts
}
