package hdfs

import (
	"math/bits"

	"wavelethist/internal/zipf"
)

// Record is one input record as seen by a RecordReader.
type Record struct {
	Pos  int64 // byte offset of the record within the file
	Key  int64
	Size int // total record size in bytes (for IO accounting)
}

// RecordReader iterates over a split's records. It mirrors the Hadoop
// RecordReader contract: Next returns false at end of split — or at a
// failed read, which Err then reports; callers check it once after the
// loop, so a truncated split fails its task instead of shortening it.
type RecordReader interface {
	Next() (Record, bool)
	Err() error
	// BytesRead reports the bytes this reader has pulled from the split's
	// DataNode so far (IO accounting for the cost model).
	BytesRead() int64
}

// SequentialReader scans every fixed-size record of a split in order — the
// default Hadoop InputFormat behaviour used by the exact algorithms.
type SequentialReader struct {
	split Split
	pos   int64
	read  int64
	buf   []byte
	err   error
}

// NewSequentialReader creates a reader over the split. The split's file
// must use fixed-size records.
func NewSequentialReader(split Split) *SequentialReader {
	if split.File.RecordSize == 0 {
		panic("hdfs: sequential fixed reader on variable-length file")
	}
	return &SequentialReader{
		split: split,
		pos:   split.Offset,
		buf:   make([]byte, split.File.RecordSize),
	}
}

// Next returns the next record.
func (r *SequentialReader) Next() (Record, bool) {
	rs := int64(r.split.File.RecordSize)
	if r.pos+rs > r.split.Offset+r.split.Length {
		return Record{}, false
	}
	if _, err := r.split.File.ReadAt(r.buf, r.pos); err != nil {
		r.err = err
		return Record{}, false
	}
	rec := Record{
		Pos:  r.pos,
		Key:  decodeKey(r.buf, r.split.File.RecordSize),
		Size: r.split.File.RecordSize,
	}
	r.pos += rs
	r.read += rs
	return rec, true
}

// BytesRead implements RecordReader.
func (r *SequentialReader) BytesRead() int64 { return r.read }

// Err implements RecordReader.
func (r *SequentialReader) Err() error { return r.err }

// RandomReader is the paper's RandomRecordReader for fixed-size records
// (Appendix B): on initialization it draws the sample's record offsets
// and then seeks monotonically forward through them, so each sampled
// record costs one seek + one record read instead of a full split scan.
// The paper keeps the offsets in a priority queue; here they are the set
// bits of a bitmap over the split's records (n_j bits), which is already
// in ascending order. Sampling is without replacement, which the paper
// notes behaves like coin-flip sampling for these methods.
type RandomReader struct {
	split  Split
	sample []uint64 // bit i set: record i of the split is sampled and unread
	word   int      // sample[:word] is exhausted
	size   int64
	read   int64
	buf    []byte
	err    error
}

// NewRandomReader samples sampleCount records (capped at the split's record
// count) uniformly without replacement using rng.
func NewRandomReader(split Split, sampleCount int64, rng *zipf.RNG) *RandomReader {
	if split.File.RecordSize == 0 {
		panic("hdfs: fixed random reader on variable-length file")
	}
	nj := split.NumRecords()
	if sampleCount > nj {
		sampleCount = nj
	}
	if sampleCount < 0 {
		sampleCount = 0
	}
	// Floyd's algorithm: a uniform sample of sampleCount distinct indices
	// from [0, nj) in sampleCount draws. The draws, not the container,
	// fix the sample and the state rng is left in.
	sample := make([]uint64, (nj+63)/64)
	for j := nj - sampleCount; j < nj; j++ {
		t := rng.Int63n(j + 1)
		if sample[t>>6]&(1<<(t&63)) != 0 {
			t = j
		}
		sample[t>>6] |= 1 << (t & 63)
	}
	return &RandomReader{
		split:  split,
		sample: sample,
		size:   sampleCount,
		buf:    make([]byte, split.File.RecordSize),
	}
}

// SampleSize returns the number of records this reader will deliver.
func (r *RandomReader) SampleSize() int64 { return r.size }

// Next returns the next sampled record (ascending file position).
func (r *RandomReader) Next() (Record, bool) {
	for r.word < len(r.sample) && r.sample[r.word] == 0 {
		r.word++
	}
	if r.word == len(r.sample) {
		return Record{}, false
	}
	w := r.sample[r.word]
	r.sample[r.word] = w & (w - 1)
	rs := int64(r.split.File.RecordSize)
	pos := r.split.Offset + int64(r.word<<6+bits.TrailingZeros64(w))*rs
	if _, err := r.split.File.ReadAt(r.buf, pos); err != nil {
		r.err = err
		return Record{}, false
	}
	r.read += rs
	return Record{
		Pos:  pos,
		Key:  decodeKey(r.buf, r.split.File.RecordSize),
		Size: r.split.File.RecordSize,
	}, true
}

// BytesRead implements RecordReader.
func (r *RandomReader) BytesRead() int64 { return r.read }

// Err implements RecordReader.
func (r *RandomReader) Err() error { return r.err }
