package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
)

// Binary encodings for H-WTopk's per-split state files (the paper's HDFS
// state files) and for the candidate set R in the round-3 broadcast; and
// the coordinator's in-memory candidate table.

// A coefficient list is [count int64] then count fixed 16-byte records
// [index int64][value float64], little-endian. The mappers write it in
// ascending index order and rounds 2 and 3 read it where it lies.
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

// coefState is a validated read-only view of an encoded coefficient list.
type coefState struct {
	b []byte // the n records, header stripped
	n int
}

// openCoefState validates the count against the buffer length.
func openCoefState(b []byte) (coefState, error) {
	if len(b) < coefStateHeader {
		return coefState{}, fmt.Errorf("core: truncated coefficient state")
	}
	n := int64(binary.LittleEndian.Uint64(b))
	// Overflow-safe bound: compare against the entry capacity of the
	// buffer instead of multiplying the untrusted count.
	if n < 0 || n > int64(len(b)-coefStateHeader)/coefRecordBytes {
		return coefState{}, fmt.Errorf("core: corrupt coefficient state (n=%d, len=%d)", n, len(b))
	}
	return coefState{b: b[coefStateHeader : coefStateHeader+coefRecordBytes*int(n)], n: int(n)}, nil
}

func (s coefState) index(i int) int64 {
	return int64(binary.LittleEndian.Uint64(s.b[coefRecordBytes*i:]))
}

func (s coefState) value(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(s.b[coefRecordBytes*i+8:]))
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

// add folds a split's pairs for this item into ŵ, once per split.
func (e *coordEntry) add(vals []mapred.KV) {
	for _, kv := range vals {
		j := int(kv.Src)
		if e.recv.Get(j) {
			continue
		}
		e.recv.Set(j)
		e.wHat += kv.Val
	}
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
