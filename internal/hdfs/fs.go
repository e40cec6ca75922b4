// Package hdfs simulates the Hadoop Distributed File System at the level of
// detail the paper's algorithms observe: files are split into fixed-size
// chunks placed on DataNodes by a NameNode (replication 1, as in the paper's
// setup), MapReduce splits correspond to chunks, and record readers provide
// sequential scans plus the paper's RandomRecordReader (Appendix B) for the
// sampling algorithms (Floyd's algorithm over a bitmap of the split's
// records), including the variable-length record scheme. A reader that
// cannot read what its split claims says so through Err.
package hdfs

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// DefaultChunkSize is the default chunk (and split) size. The paper's
// default is 256 MB on ~50 GB inputs (m = 200 splits); our scaled datasets
// keep a comparable split *count* with a smaller chunk size.
const DefaultChunkSize = 64 * 1024

// FileSystem is a simulated HDFS instance: a NameNode's view of chunk
// placement over a set of DataNodes, plus the chunk payloads themselves.
type FileSystem struct {
	numNodes  int
	chunkSize int64
	files     map[string]*File
	nextNode  int // round-robin placement cursor
}

// NewFileSystem creates a file system over numNodes DataNodes with the
// given chunk size in bytes.
func NewFileSystem(numNodes int, chunkSize int64) *FileSystem {
	if numNodes < 1 {
		panic("hdfs: need at least one DataNode")
	}
	if chunkSize < 16 {
		panic("hdfs: chunk size too small")
	}
	return &FileSystem{
		numNodes:  numNodes,
		chunkSize: chunkSize,
		files:     make(map[string]*File),
	}
}

// File is a simulated HDFS file: a byte payload plus chunk placement and
// record-format metadata.
type File struct {
	Name       string
	RecordSize int // fixed record size in bytes; 0 => variable-length
	NumRecords int64
	data       []byte
	chunks     []Chunk
	fs         *FileSystem

	splitsMu sync.Mutex
	splits   map[int64][]Split // by aligned split size: a sealed file's split tables
}

// Chunk records the placement of one chunk.
type Chunk struct {
	Index  int
	Offset int64 // byte offset within the file
	Length int64
	Node   int // DataNode holding the (single) replica
}

// Create creates (or truncates) a fixed-record-size file. recordSize must
// be >= 4 (keys are 4-byte little-endian; >= 8 stores 8-byte keys, which
// 2D packed domains need).
func (fs *FileSystem) Create(name string, recordSize int) (*Writer, error) {
	if recordSize < 4 {
		return nil, fmt.Errorf("hdfs: record size %d < 4", recordSize)
	}
	f := &File{Name: name, RecordSize: recordSize, fs: fs}
	fs.files[name] = f
	return &Writer{f: f}, nil
}

// CreateVar creates (or truncates) a variable-length record file
// (Appendix B format: 4-byte key, payload, 4-byte record length, delimiter).
func (fs *FileSystem) CreateVar(name string) (*VarWriter, error) {
	f := &File{Name: name, RecordSize: 0, fs: fs}
	fs.files[name] = f
	return &VarWriter{f: f}, nil
}

// Open returns the named file.
func (fs *FileSystem) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: file %q not found", name)
	}
	return f, nil
}

// Remove deletes the named file (no error if absent).
func (fs *FileSystem) Remove(name string) { delete(fs.files, name) }

// seal assigns chunk placement after a file is fully written. Chunks go to
// DataNodes round-robin, which matches the balanced placement a healthy
// HDFS converges to and keeps experiments deterministic.
func (fs *FileSystem) seal(f *File) {
	f.chunks, f.splits = f.chunks[:0], nil
	size := int64(len(f.data))
	for off := int64(0); off < size; off += fs.chunkSize {
		length := fs.chunkSize
		if off+length > size {
			length = size - off
		}
		f.chunks = append(f.chunks, Chunk{
			Index:  len(f.chunks),
			Offset: off,
			Length: length,
			Node:   fs.nextNode,
		})
		fs.nextNode = (fs.nextNode + 1) % fs.numNodes
	}
	if size == 0 {
		// An empty file still occupies one (empty) chunk for metadata.
		f.chunks = append(f.chunks, Chunk{Node: fs.nextNode})
		fs.nextNode = (fs.nextNode + 1) % fs.numNodes
	}
}

// Size returns the file size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Chunks returns the chunk placement.
func (f *File) Chunks() []Chunk { return f.chunks }

// ReadAt copies len(p) bytes at offset off. It is the DataNode read path.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(f.data)) {
		return 0, f.readErr(off)
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, f.readErr(off)
	}
	return n, nil
}

// keyAt decodes the key of the fixed-size record at offset off straight
// from the payload, with ReadAt's bounds checks and errors.
func (f *File) keyAt(off int64) (int64, error) {
	if off < 0 || off > int64(len(f.data))-int64(f.RecordSize) {
		return 0, f.readErr(off)
	}
	return decodeKey(f.data[off:], f.RecordSize), nil
}

// readErr is ReadAt's error for a record-sized read at off that does not
// fit in the payload.
func (f *File) readErr(off int64) error {
	if off < 0 || off >= int64(len(f.data)) {
		return fmt.Errorf("hdfs: read at %d beyond EOF %d", off, len(f.data))
	}
	return fmt.Errorf("hdfs: short read at %d", off)
}

// Split is a logical input split handed to one Mapper. With DefaultChunk
// placement, splits equal chunks (the common Hadoop case the paper uses).
type Split struct {
	File   *File
	Index  int   // split id; the paper identifies splits by file offset
	Offset int64 // byte offset
	Length int64
	Node   int // DataNode holding the split's data (locality hint)
}

// NumRecords returns the number of fixed-size records in the split.
// Panics for variable-length files (use a reader instead).
func (s Split) NumRecords() int64 {
	if s.File.RecordSize == 0 {
		panic("hdfs: NumRecords on variable-length split")
	}
	return s.Length / int64(s.File.RecordSize)
}

// Splits partitions the file into splits of splitSize bytes, aligned to
// record boundaries for fixed-size records. splitSize <= 0 uses the chunk
// size. Each split inherits the locality of the chunk containing its first
// byte. A file computes each split size's table once (a worker plans a
// build per map RPC); every call returns its own copy.
func (f *File) Splits(splitSize int64) []Split {
	if splitSize <= 0 {
		splitSize = f.fs.chunkSize
	}
	if f.RecordSize > 0 {
		// Align down to a whole number of records; never below one record.
		rs := int64(f.RecordSize)
		splitSize = splitSize / rs * rs
		if splitSize < rs {
			splitSize = rs
		}
	}
	f.splitsMu.Lock()
	defer f.splitsMu.Unlock()
	splits, ok := f.splits[splitSize]
	if !ok {
		splits = f.split(splitSize)
		if f.splits == nil {
			f.splits = make(map[int64][]Split)
		}
		f.splits[splitSize] = splits
	}
	return slices.Clone(splits)
}

// split computes the table of splits of splitSize bytes.
func (f *File) split(splitSize int64) []Split {
	var splits []Split
	size := int64(len(f.data))
	for off := int64(0); off < size; off += splitSize {
		length := splitSize
		if off+length > size {
			length = size - off
		}
		splits = append(splits, Split{
			File:   f,
			Index:  len(splits),
			Offset: off,
			Length: length,
			Node:   f.nodeAt(off),
		})
	}
	return splits
}

// nodeAt returns the DataNode holding the byte at offset off.
func (f *File) nodeAt(off int64) int {
	i := sort.Search(len(f.chunks), func(i int) bool {
		return f.chunks[i].Offset+f.chunks[i].Length > off
	})
	if i == len(f.chunks) {
		if len(f.chunks) == 0 {
			return 0
		}
		return f.chunks[len(f.chunks)-1].Node
	}
	return f.chunks[i].Node
}

// keyWidth returns the on-disk key width for a fixed-size record.
func keyWidth(recordSize int) int {
	if recordSize >= 8 {
		return 8
	}
	return 4
}

// decodeKey reads a record's key.
func decodeKey(b []byte, recordSize int) int64 {
	if keyWidth(recordSize) == 8 {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return int64(binary.LittleEndian.Uint32(b))
}

// encodeKey writes a record's key into b.
func encodeKey(b []byte, key int64, recordSize int) {
	if keyWidth(recordSize) == 8 {
		binary.LittleEndian.PutUint64(b, uint64(key))
		return
	}
	if key < 0 || key > 0xFFFFFFFF {
		panic(fmt.Sprintf("hdfs: key %d does not fit in a 4-byte record", key))
	}
	binary.LittleEndian.PutUint32(b, uint32(key))
}

// Writer appends fixed-size records to a file being created.
type Writer struct {
	f      *File
	zero   []byte // one record of padding
	sealed bool
}

// Reserve sizes the payload for records more appends at once, for a
// caller that knows its record count; appending past it still works.
func (w *Writer) Reserve(records int64) {
	w.f.data = slices.Grow(w.f.data, int(records)*w.f.RecordSize)
}

// Append writes one record with the given key; the rest of the record is
// zero padding (the paper's synthetic records carry only the 4-byte key).
func (w *Writer) Append(key int64) {
	if w.sealed {
		panic("hdfs: append after Close")
	}
	rs := w.f.RecordSize
	if w.zero == nil {
		w.zero = make([]byte, rs)
	}
	n := len(w.f.data)
	w.f.data = append(w.f.data, w.zero...)
	encodeKey(w.f.data[n:], key, rs)
	w.f.NumRecords++
}

// Close seals the file and assigns chunk placement.
func (w *Writer) Close() *File {
	if !w.sealed {
		w.f.fs.seal(w.f)
		w.sealed = true
	}
	return w.f
}
