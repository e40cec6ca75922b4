package hdfs

import (
	"encoding/hex"
	"fmt"
	"sort"

	"wavelethist/internal/zipf"
)

// Variable-length records (Appendix B). The paper assumes records "end
// with a 4-byte record length followed by a delimiter character (e.g., a
// new line character)". We realize that as a log-line-like layout where
// the delimiter byte cannot occur inside a record, so forward scanning
// from an arbitrary offset is unambiguous:
//
//	[key: 8 hex chars][payload: bytes != '\n'][length: 8 hex chars]['\n']
//
// length is the total record size in bytes (17 + payload length).

const (
	varDelim     = byte('\n')
	varKeyChars  = 8
	varLenChars  = 8
	varMinRecord = varKeyChars + varLenChars + 1
)

// VarWriter appends variable-length records to a file being created.
type VarWriter struct {
	f      *File
	sealed bool
}

// Append writes one record with the given key and payload length. Payload
// bytes are a deterministic filler. Keys must fit in 32 bits.
func (w *VarWriter) Append(key int64, payloadLen int) {
	if w.sealed {
		panic("hdfs: append after Close")
	}
	if key < 0 || key > 0xFFFFFFFF {
		panic(fmt.Sprintf("hdfs: key %d does not fit in 4 bytes", key))
	}
	if payloadLen < 0 {
		payloadLen = 0
	}
	total := varMinRecord + payloadLen
	rec := make([]byte, total)
	hexPut(rec[0:varKeyChars], uint32(key))
	for i := 0; i < payloadLen; i++ {
		rec[varKeyChars+i] = 'a' + byte(i%26)
	}
	hexPut(rec[varKeyChars+payloadLen:varKeyChars+payloadLen+varLenChars], uint32(total))
	rec[total-1] = varDelim
	w.f.data = append(w.f.data, rec...)
	w.f.NumRecords++
}

// Close seals the file and assigns chunk placement.
func (w *VarWriter) Close() *File {
	if !w.sealed {
		w.f.fs.seal(w.f)
		w.sealed = true
	}
	return w.f
}

func hexPut(dst []byte, v uint32) {
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	hex.Encode(dst, b[:])
}

func hexGet(src []byte) uint32 {
	var b [4]byte
	if _, err := hex.Decode(b[:], src); err != nil {
		panic(fmt.Sprintf("hdfs: corrupt hex field %q", src))
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// SequentialVarReader scans the variable-length records owned by a split
// (those starting within it), with the usual Hadoop text-input convention:
// a split not starting at offset 0 skips forward past the first delimiter.
type SequentialVarReader struct {
	split Split
	pos   int64
	read  int64
	err   error
}

// overrun is the variable-length readers' short-read check (they index
// the payload directly, so no ReadAt fails for them): a split may not
// extend past its file.
func (s Split) overrun() error {
	if end := s.Offset + s.Length; end > s.File.Size() {
		return fmt.Errorf("hdfs: split [%d, %d) beyond EOF %d", s.Offset, end, s.File.Size())
	}
	return nil
}

// NewSequentialVarReader creates the reader.
func NewSequentialVarReader(split Split) *SequentialVarReader {
	if split.File.RecordSize != 0 {
		panic("hdfs: variable reader on fixed-size file")
	}
	r := &SequentialVarReader{split: split, pos: split.Offset, err: split.overrun()}
	if split.Offset > 0 {
		// Skip the partial record: advance past the first delimiter.
		d := split.File.scanDelim(split.Offset)
		if d < 0 {
			r.pos = split.File.Size() // nothing owned by this split
		} else {
			r.read += d + 1 - split.Offset
			r.pos = d + 1
		}
	}
	return r
}

// Next returns the next record owned by the split.
func (r *SequentialVarReader) Next() (Record, bool) {
	f := r.split.File
	if r.err != nil || r.pos >= r.split.Offset+r.split.Length || r.pos >= f.Size() {
		return Record{}, false
	}
	d := f.scanDelim(r.pos)
	if d < 0 {
		r.err = fmt.Errorf("hdfs: unterminated variable record at %d", r.pos)
		return Record{}, false
	}
	total := int64(d - r.pos + 1)
	if total < varMinRecord {
		panic(fmt.Sprintf("hdfs: corrupt variable record at %d", r.pos))
	}
	key := int64(hexGet(f.data[r.pos : r.pos+varKeyChars]))
	rec := Record{Pos: r.pos, Key: key, Size: int(total)}
	r.read += total
	r.pos = d + 1
	return rec, true
}

// ReadKeys implements RecordReader.
func (r *SequentialVarReader) ReadKeys(dst []int64, max int) []int64 {
	return readKeys(r.Next, dst, max)
}

// readKeys is ReadKeys over a variable-length reader's Next.
func readKeys(next func() (Record, bool), dst []int64, max int) []int64 {
	for ; max > 0; max-- {
		rec, ok := next()
		if !ok {
			break
		}
		dst = append(dst, rec.Key)
	}
	return dst
}

// BytesRead implements RecordReader.
func (r *SequentialVarReader) BytesRead() int64 { return r.read }

// Err implements RecordReader.
func (r *SequentialVarReader) Err() error { return r.err }

// scanDelim returns the position of the first delimiter at or after pos,
// or -1 if none.
func (f *File) scanDelim(pos int64) int64 {
	for i := pos; i < int64(len(f.data)); i++ {
		if f.data[i] == varDelim {
			return i
		}
	}
	return -1
}

// RandomVarReader implements Appendix B's variable-length
// RandomRecordReader: it draws sampleCount random byte offsets into the
// split (ascending priority queue Q), maps each to the record containing
// it by scanning forward for the delimiter and reading the trailing
// length field, records claimed records as (start, length) intervals
// (heap H), and replaces offsets that fall into already-claimed records
// with fresh offsets outside all claimed intervals.
type RandomVarReader struct {
	split   Split
	records []Record // claimed records sorted by start offset
	next    int
	read    int64
	err     error
}

// NewRandomVarReader samples sampleCount distinct records.
func NewRandomVarReader(split Split, sampleCount int64, rng *zipf.RNG) *RandomVarReader {
	if split.File.RecordSize != 0 {
		panic("hdfs: variable random reader on fixed-size file")
	}
	r := &RandomVarReader{split: split, err: split.overrun()}
	f := split.File
	if r.err != nil || split.Length <= 0 || sampleCount <= 0 {
		return r
	}

	// Q: pending offsets, processed in ascending order (pop smallest).
	q := make([]int64, 0, sampleCount)
	for i := int64(0); i < sampleCount; i++ {
		q = append(q, split.Offset+rng.Int63n(split.Length))
	}
	sort.Slice(q, func(i, j int) bool { return q[i] < q[j] })

	// H: claimed intervals [start, start+len), kept sorted by start.
	type interval struct{ start, end int64 }
	var h []interval
	covered := func(off int64) bool {
		i := sort.Search(len(h), func(i int) bool { return h[i].end > off })
		return i < len(h) && h[i].start <= off
	}
	claim := func(start, end int64) {
		i := sort.Search(len(h), func(i int) bool { return h[i].start >= start })
		h = append(h, interval{})
		copy(h[i+1:], h[i:])
		h[i] = interval{start, end}
	}

	const maxRetries = 64
	for len(q) > 0 {
		off := q[0]
		q = q[1:]
		if covered(off) {
			// Replacement offset avoiding claimed intervals (the paper
			// regenerates o' not covered by any (o, r) pair in H).
			ok := false
			for try := 0; try < maxRetries; try++ {
				cand := split.Offset + rng.Int63n(split.Length)
				if !covered(cand) {
					off = cand
					ok = true
					break
				}
			}
			if !ok {
				continue // split (nearly) exhausted; sample fewer records
			}
			if len(q) > 0 && off > q[0] {
				// Keep Q's ascending processing order.
				i := sort.Search(len(q), func(i int) bool { return q[i] >= off })
				q = append(q, 0)
				copy(q[i+1:], q[i:])
				q[i] = off
				continue
			}
		}
		// Scan forward for the record end; the record containing off ends
		// at the first delimiter at or after off.
		d := f.scanDelim(off)
		if d < 0 {
			continue // offset in trailing garbage (cannot happen in well-formed files)
		}
		total := int64(hexGet(f.data[d-varLenChars : d]))
		start := d + 1 - total
		if start < 0 || total < varMinRecord {
			panic(fmt.Sprintf("hdfs: corrupt variable record near %d", d))
		}
		if covered(start) {
			continue // raced into an already-claimed record via scan-forward
		}
		claim(start, d+1)
		key := int64(hexGet(f.data[start : start+varKeyChars]))
		r.records = append(r.records, Record{Pos: start, Key: key, Size: int(total)})
		r.read += (d - off + 1) + total // scan-forward cost + record read
	}
	sort.Slice(r.records, func(i, j int) bool { return r.records[i].Pos < r.records[j].Pos })
	return r
}

// SampleSize returns the number of sampled records.
func (r *RandomVarReader) SampleSize() int64 { return int64(len(r.records)) }

// ReadKeys implements RecordReader.
func (r *RandomVarReader) ReadKeys(dst []int64, max int) []int64 {
	return readKeys(r.Next, dst, max)
}

// Next returns the next sampled record in ascending file order.
func (r *RandomVarReader) Next() (Record, bool) {
	if r.next >= len(r.records) {
		return Record{}, false
	}
	rec := r.records[r.next]
	r.next++
	return rec, true
}

// BytesRead implements RecordReader.
func (r *RandomVarReader) BytesRead() int64 { return r.read }

// Err implements RecordReader.
func (r *RandomVarReader) Err() error { return r.err }
