package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
)

// H-WTopk's per-split state (the paper's HDFS state files), the binary
// encoding of the candidate set R in the round-3 broadcast, and the
// coordinator's in-memory candidate table.

// A state file is [count int64] then count fixed 16-byte records
// [index int64][value float64], little-endian, in ascending index order:
// the split's local coefficients that earlier rounds did not ship.
const (
	coefStateHeader = 8
	coefRecordBytes = 16
)

// encodeCoefs serializes coefs, leaving out those whose index is in skip,
// into one exactly-sized buffer. Both lists are index-ascending and every
// id in skip is the index of one coefficient, so a single merge pass
// writes each surviving record once.
func encodeCoefs(coefs []wavelet.Coef, skip []int64) []byte {
	b := make([]byte, coefStateHeader+coefRecordBytes*(len(coefs)-len(skip)))
	binary.LittleEndian.PutUint64(b, uint64(len(coefs)-len(skip)))
	off := coefStateHeader
	for _, c := range coefs {
		if len(skip) > 0 && skip[0] == c.Index {
			skip = skip[1:]
			continue
		}
		binary.LittleEndian.PutUint64(b[off:], uint64(c.Index))
		binary.LittleEndian.PutUint64(b[off+8:], math.Float64bits(c.Value))
		off += coefRecordBytes
	}
	return b
}

// hwSplitState is one split's state between H-WTopk rounds: what its
// state file holds — the split's local coefficients minus the ids already
// shipped — kept as v_j plus the coefficients v_j does not give in closed
// form. A dyadic range that holds one key x with count c has the
// coefficient ±c/√(u>>j) (the streaming transform adds that one term to
// 0.0), and most of a split's ranges hold one key; only the coefficients
// of ranges two or more keys share are stored. The file itself is built
// only on request (File). A value is never written once stored.
type hwSplitState struct {
	// u is the 1D domain, 0 when every coefficient is explicit (2D).
	u    int64
	logu uint
	norm []float64 // norm[j] = √(u>>j), the streaming transform's table
	// keys and counts are v_j (1D): ascending keys, record counts.
	keys   []int64
	counts []float64
	// coefs are the explicit coefficients, index-ascending: in 1D those
	// of the ranges two or more keys share, in 2D all of them.
	coefs []wavelet.Coef
	// out are the ids left out of the file, ascending: those round 1
	// shipped, and in a round-2 state those round 2 shipped too.
	out []int64
	n   int // records in the file
}

// Size is the state file's length.
func (s *hwSplitState) Size() int64 { return coefStateHeader + coefRecordBytes*int64(s.n) }

// File builds the state file: the split's full transform minus out.
func (s *hwSplitState) File() []byte {
	all := s.coefs
	if s.u != 0 {
		all = wavelet.AppendSparseTransformSorted(nil, s.keys, s.counts, s.u)
	}
	return encodeCoefs(all, s.out)
}

// newHWSplitState1D builds round 1's state of a split from v_j and returns
// it with the split's coefficient count, offering every coefficient that
// can enter them to the heaps of sel without materializing any: one pass
// over the keys counts the shared ranges per level, a second sums them
// as StreamingTransformer.Feed does (in key order, so they are its floats;
// a zero sum is absent, as there) and offers everything. keys and counts
// are copied (the caller's live in pooled scratch).
func newHWSplitState1D(keys []int64, counts []float64, u int64, sel *twoSided) (*hwSplitState, int) {
	s := &hwSplitState{u: u, logu: wavelet.Log2(u), keys: slices.Clone(keys), counts: slices.Clone(counts)}
	s.norm = make([]float64, max(s.logu, 1))
	s.norm[0] = math.Sqrt(float64(u))
	for j := uint(1); j < s.logu; j++ {
		s.norm[j] = math.Sqrt(float64(u >> j))
	}
	nk := len(keys)
	if nk == 0 {
		return s, 0
	}
	// First pass: how many shared ranges each level closes. After key i,
	// the levels from closes(i) up close; those below shared(i) were
	// shared, and the average (index 0) is shared when two keys exist.
	var perLevel [64]int
	for i := range keys {
		for j, sh := s.closes(i), s.shared(i); j < sh; j++ {
			perLevel[j]++
		}
	}
	// Windows by level, index-ascending end to end (as in
	// AppendSparseTransformSorted): the shared average first.
	var next [64]int
	w := min(nk-1, 1)
	for j := uint(0); j < s.logu; j++ {
		next[j], w = w, w+perLevel[j]
	}
	first := next
	coefs := make([]wavelet.Coef, w)

	var path [64]float64
	var avg float64
	total := 0
	for i, x := range keys {
		c, sh := counts[i], s.shared(i)
		avg += c / s.norm[0]
		for j := uint(0); j < sh; j++ {
			path[j] += signed(c/s.norm[j], x, s.logu-j)
		}
		for j := s.closes(i); j < sh; j++ {
			if v := path[j]; v != 0 {
				id := int64(1)<<j + x>>(s.logu-j)
				coefs[next[j]] = wavelet.Coef{Index: id, Value: v}
				next[j]++
				sel.offer(id, v)
			}
			path[j] = 0
		}
		total += int(s.logu - sh)
		// Single-key coefficients shrink toward the root: offer them
		// finest first and stop at the first neither heap can take.
		s.singles(i, func(id int64, v float64) bool {
			if sel.refuses(math.Abs(v)) {
				return false
			}
			sel.offer(id, v)
			return true
		})
	}
	if nk == 1 {
		total++ // the single key's average
	} else if avg != 0 {
		coefs[0] = wavelet.Coef{Index: 0, Value: avg}
		sel.offer(0, avg)
	}
	// A shared range whose sum cancelled to exactly 0 was counted but not
	// written: slide later windows down over the gaps.
	w = 0
	if nk > 1 && avg != 0 {
		w = 1
	}
	for j := uint(0); j < s.logu; j++ {
		w += copy(coefs[w:], coefs[first[j]:next[j]])
	}
	s.coefs = coefs[:w:w]
	return s, total + w
}

// shared is the number of levels, from the root, on which key i shares
// its dyadic range with a neighbour: levels j < shared(i) hold another key
// too, levels from it to logu-1 hold key i alone.
func (s *hwSplitState) shared(i int) uint {
	l := 64
	if i > 0 {
		l = bits.Len64(uint64(s.keys[i-1] ^ s.keys[i]))
	}
	if i+1 < len(s.keys) {
		l = min(l, bits.Len64(uint64(s.keys[i]^s.keys[i+1])))
	}
	return s.logu + 1 - min(uint(l), s.logu+1)
}

// closes is the first level whose range key i is the last key of: its
// ranges on every level from there up close after it.
func (s *hwSplitState) closes(i int) uint {
	if i+1 == len(s.keys) {
		return 0
	}
	return s.logu + 1 - uint(bits.Len64(uint64(s.keys[i]^s.keys[i+1])))
}

// term is key i's contribution to its level-j coefficient.
func (s *hwSplitState) term(i int, j uint) float64 {
	return signed(s.counts[i]/s.norm[j], s.keys[i], s.logu-j)
}

// signed negates v when key x sits in the left half of its range of
// length 2^sh, as the streaming transform does: flipping the sign bit,
// with no data-dependent branch.
func signed(v float64, x int64, sh uint) float64 {
	left := ^uint64(x>>(sh-1)) & 1
	return math.Float64frombits(math.Float64bits(v) ^ left<<63)
}

// singles yields key i's single-key coefficients, finest level first,
// until yield returns false: the levels it holds alone, then the average
// when it is the split's only key. Magnitudes never grow along the way.
func (s *hwSplitState) singles(i int, yield func(id int64, v float64) bool) {
	x := s.keys[i]
	sh := s.shared(i)
	for j := s.logu; j > sh; j-- {
		if !yield(int64(1)<<(j-1)+x>>(s.logu-j+1), s.term(i, j-1)) {
			return
		}
	}
	if len(s.keys) == 1 {
		yield(0, s.counts[i]/s.norm[0])
	}
}

// isOut reports whether id was left out of the file.
func (s *hwSplitState) isOut(id int64) bool {
	_, found := slices.BinarySearch(s.out, id)
	return found
}

// round2 emits every coefficient of the file above thresh in magnitude
// and returns the state of the remainder: s itself when none clears.
func (s *hwSplitState) round2(thresh float64, emit func(id int64, v float64)) *hwSplitState {
	var shipped []int64
	ship := func(id int64, v float64) {
		if !s.isOut(id) {
			emit(id, v)
			shipped = append(shipped, id)
		}
	}
	for _, c := range s.coefs {
		if math.Abs(c.Value) > thresh {
			ship(c.Index, c.Value)
		}
	}
	for i := range s.keys {
		s.singles(i, func(id int64, v float64) bool {
			if !(math.Abs(v) > thresh) {
				return false
			}
			ship(id, v)
			return true
		})
	}
	if len(shipped) == 0 {
		return s
	}
	r := *s
	r.out = slices.Concat(s.out, shipped)
	slices.Sort(r.out)
	r.n -= len(shipped)
	return &r
}

// lookup returns the file's coefficient id, if the file holds it: an id
// left out is not there; in 1D an id whose range holds no key is absent,
// one key gives it in closed form, two or more an explicit coefficient.
func (s *hwSplitState) lookup(id int64) (float64, bool) {
	if s.isOut(id) {
		return 0, false
	}
	if s.u != 0 {
		if id < 0 || id >= s.u {
			return 0, false
		}
		lo, hi := int64(0), s.u
		if id > 0 {
			j := uint(bits.Len64(uint64(id))) - 1
			lo = (id - 1<<j) << (s.logu - j)
			hi = lo + s.u>>j
		}
		a, _ := slices.BinarySearch(s.keys, lo)
		held, _ := slices.BinarySearch(s.keys[a:], hi)
		switch held {
		case 0:
			return 0, false
		case 1:
			if id == 0 {
				return s.counts[a] / s.norm[0], true
			}
			return s.term(a, uint(bits.Len64(uint64(id)))-1), true
		}
	}
	at, found := slices.BinarySearchFunc(s.coefs, id, func(c wavelet.Coef, id int64) int { return cmp.Compare(c.Index, id) })
	if !found {
		return 0, false
	}
	return s.coefs[at].Value, true
}

// bitset is a fixed-size bitset over split ids (the paper's F_i vectors,
// stored as received-bits: bit j set means split j's score is known).
type bitset struct {
	words []uint64
	n     int
}

func newBitset(n int) *bitset {
	return &bitset{words: make([]uint64, (n+63)/64), n: n}
}

func (b *bitset) Set(i int)      { b.words[i/64] |= 1 << (uint(i) % 64) }
func (b *bitset) Get(i int) bool { return b.words[i/64]&(1<<(uint(i)%64)) != 0 }
func (b *bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEachSet calls f for every set bit.
func (b *bitset) ForEachSet(f func(i int)) {
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			f(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// coordEntry is one candidate item at the coordinator: its partial sum ŵ_i
// and the set of splits whose exact score is known.
type coordEntry struct {
	wHat float64
	recv *bitset
}

// add folds split j's pairs for this item into ŵ, once per split. The
// pairs are one run of equal keys from j's batch, so the first is j's
// score (a second is the same score shipped as top-k and bottom-k).
func (e *coordEntry) add(j int, vals []mapred.KV) {
	if e.recv.Get(j) {
		return
	}
	e.recv.Set(j)
	e.wHat += vals[0].Val
}

// coordState is the coordinator's candidate table: built by round 1's
// reducer, extended and pruned by round 2's, finalized by round 3's.
type coordState struct {
	m       int
	t1      float64
	entries map[int64]*coordEntry
}

// entry returns item i's entry, creating an empty one.
func (cs *coordState) entry(i int64) *coordEntry {
	e := cs.entries[i]
	if e == nil {
		e = &coordEntry{recv: newBitset(cs.m)}
		cs.entries[i] = e
	}
	return e
}

// encodeIndexSet serializes the candidate set R for the round-3 broadcast.
// Indices use 4 bytes (the paper's ids) unless any exceeds 32 bits — 2D
// packed indices over large domains — in which case 8-byte ids are used.
// indexSetBytes reports the same width for wire-cost accounting.
func encodeIndexSet(ids []int64) []byte {
	width := byte(4)
	for _, id := range ids {
		if id > 0xFFFFFFFF {
			width = 8
			break
		}
	}
	b := mapred.AppendInt64(nil, int64(len(ids)))
	b = append(b, width)
	for _, id := range ids {
		if width == 4 {
			b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		} else {
			b = mapred.AppendInt64(b, id)
		}
	}
	return b
}

// indexSetBytes is the network payload charged for shipping R.
func indexSetBytes(ids []int64) int64 {
	width := int64(4)
	for _, id := range ids {
		if id > 0xFFFFFFFF {
			width = 8
			break
		}
	}
	return width * int64(len(ids))
}

// decodeIndexSet returns the candidate ids in ascending order, the order
// round 3 probes its index-sorted state in. The coordinator ships R
// sorted; any other order is accepted and normalized.
func decodeIndexSet(b []byte) ([]int64, error) {
	if len(b) < 9 {
		return nil, fmt.Errorf("core: truncated index set")
	}
	n, off := mapred.ReadInt64(b, 0)
	width := int(b[off])
	off++
	if n < 0 || (width != 4 && width != 8) || n > int64(len(b)-off)/int64(width) {
		return nil, fmt.Errorf("core: corrupt index set")
	}
	out := make([]int64, n)
	for i := range out {
		if width == 4 {
			out[i] = int64(binary.LittleEndian.Uint32(b[off:]))
		} else {
			out[i] = int64(binary.LittleEndian.Uint64(b[off:]))
		}
		off += width
	}
	if !slices.IsSorted(out) {
		slices.Sort(out)
	}
	return out, nil
}
