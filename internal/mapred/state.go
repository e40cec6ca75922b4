package mapred

import (
	"encoding/binary"
	"math"
	"sync"
)

// StateStore simulates the paper's persistent per-split state: at the end
// of a Mapper, state is written to an HDFS file named by the split id, and
// restored when the split is reassigned in a later round. Because Hadoop
// writes HDFS files locally when possible, this costs no communication
// (Section 3, "System issues"); we therefore do not account these bytes.
type StateStore struct {
	mu    sync.RWMutex
	state map[int][]byte
}

// NewStateStore returns an empty store.
func NewStateStore() *StateStore {
	return &StateStore{state: make(map[int][]byte)}
}

// Adopt saves state under a key without copying it: the store takes
// ownership of data, which the caller must not modify afterwards. The
// mappers encode a state file once into its own buffer. Since no one
// writes an adopted buffer, one buffer may sit under two keys (a later
// round adopting an earlier round's file unchanged).
func (s *StateStore) Adopt(splitID int, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state[splitID] = data
}

// Get restores state (nil if none).
func (s *StateStore) Get(splitID int) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state[splitID]
}

// Len reports how many keys hold state.
func (s *StateStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.state)
}

// TotalBytes reports the stored payload size across all keys (worker
// state-lease observability). The size is logical: a buffer adopted
// under two keys counts once per key, and so in GET /dist/v1/state.
func (s *StateStore) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, b := range s.state {
		n += int64(len(b))
	}
	return n
}

// Binary encoding helpers for state files and broadcast blobs.
// Layout conventions: little-endian, fixed width.

// AppendUint64 appends v.
func AppendUint64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

// AppendInt64 appends v.
func AppendInt64(b []byte, v int64) []byte { return AppendUint64(b, uint64(v)) }

// AppendFloat64 appends v.
func AppendFloat64(b []byte, v float64) []byte {
	return AppendUint64(b, math.Float64bits(v))
}

// ReadUint64 reads a value at offset off, returning the new offset.
func ReadUint64(b []byte, off int) (uint64, int) {
	return binary.LittleEndian.Uint64(b[off : off+8]), off + 8
}

// ReadInt64 reads a value at offset off.
func ReadInt64(b []byte, off int) (int64, int) {
	v, o := ReadUint64(b, off)
	return int64(v), o
}

// ReadFloat64 reads a value at offset off.
func ReadFloat64(b []byte, off int) (float64, int) {
	v, o := ReadUint64(b, off)
	return math.Float64frombits(v), o
}
