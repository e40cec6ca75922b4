package hdfs

import (
	"math/bits"

	"wavelethist/internal/zipf"
)

// Record is one input record as seen by a reader's Next.
type Record struct {
	Pos  int64 // byte offset of the record within the file
	Key  int64
	Size int // total record size in bytes (for IO accounting)
}

// RecordReader delivers a split's keys to a map task in batches — a
// mapper sees keys, never record positions or sizes. ReadKeys appends up
// to max more keys to dst and returns it; it appends none at end of split
// or at a failed read, which Err then reports: callers check it once after
// the loop, so a truncated split fails its task instead of shortening it.
// Every reader also has Next, the one-record form over the same cursor,
// for callers that want a record's position.
type RecordReader interface {
	ReadKeys(dst []int64, max int) []int64
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
	err   error
}

// NewSequentialReader creates a reader over the split. The split's file
// must use fixed-size records.
func NewSequentialReader(split Split) *SequentialReader {
	if split.File.RecordSize == 0 {
		panic("hdfs: sequential fixed reader on variable-length file")
	}
	return &SequentialReader{split: split, pos: split.Offset}
}

// ReadKeys implements RecordReader.
func (r *SequentialReader) ReadKeys(dst []int64, max int) []int64 {
	f := r.split.File
	rs := int64(f.RecordSize)
	for n := min(int64(max), (r.split.Offset+r.split.Length-r.pos)/rs); n > 0; n-- {
		key, err := f.keyAt(r.pos)
		if err != nil {
			r.err = err
			break
		}
		dst = append(dst, key)
		r.pos += rs
		r.read += rs
	}
	return dst
}

// Next returns the next record.
func (r *SequentialReader) Next() (Record, bool) {
	f := r.split.File
	rs := int64(f.RecordSize)
	if r.pos+rs > r.split.Offset+r.split.Length {
		return Record{}, false
	}
	key, err := f.keyAt(r.pos)
	if err != nil {
		r.err = err
		return Record{}, false
	}
	rec := Record{Pos: r.pos, Key: key, Size: f.RecordSize}
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
	pos    int64    // the last sampled record's offset
	size   int64
	read   int64
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
	}
}

// SampleSize returns the number of records this reader will deliver.
func (r *RandomReader) SampleSize() int64 { return r.size }

// ReadKeys implements RecordReader: the sampled records' keys in
// ascending file position.
func (r *RandomReader) ReadKeys(dst []int64, max int) []int64 {
	f := r.split.File
	for ; max > 0 && r.err == nil; max-- {
		for r.word < len(r.sample) && r.sample[r.word] == 0 {
			r.word++
		}
		if r.word == len(r.sample) {
			break
		}
		w := r.sample[r.word]
		r.sample[r.word] = w & (w - 1)
		r.pos = r.split.Offset + int64(r.word<<6+bits.TrailingZeros64(w))*int64(f.RecordSize)
		key, err := f.keyAt(r.pos)
		if err != nil {
			r.err = err
			break
		}
		dst = append(dst, key)
		r.read += int64(f.RecordSize)
	}
	return dst
}

// Next returns the next sampled record (ascending file position).
func (r *RandomReader) Next() (Record, bool) {
	var key [1]int64
	if len(r.ReadKeys(key[:0], 1)) == 0 {
		return Record{}, false
	}
	return Record{Pos: r.pos, Key: key[0], Size: r.split.File.RecordSize}, true
}

// BytesRead implements RecordReader.
func (r *RandomReader) BytesRead() int64 { return r.read }

// Err implements RecordReader.
func (r *RandomReader) Err() error { return r.err }
