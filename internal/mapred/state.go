package mapred

import (
	"encoding/binary"
	"math"
	"sync"
)

// StateFile is one split's persisted state: a value that can produce the
// paper's state file, and that knows the file's size without building it.
// A round keeps what it needs to answer later rounds' questions about the
// file, which may be far less than the file.
type StateFile interface {
	// Size is the length of the file in bytes.
	Size() int64
	// File builds the file's bytes.
	File() []byte
}

// StateStore simulates the paper's persistent per-split state: at the end
// of a Mapper, state is written to an HDFS file named by the split id, and
// restored when the split is reassigned in a later round. Because Hadoop
// writes HDFS files locally when possible, this costs no communication
// (Section 3, "System issues"); we therefore do not account these bytes.
type StateStore struct {
	mu    sync.RWMutex
	state map[int]StateFile
}

// NewStateStore returns an empty store.
func NewStateStore() *StateStore {
	return &StateStore{state: make(map[int]StateFile)}
}

// Adopt saves state under a key without copying it: the store takes
// ownership of v, which no one writes afterwards. So one value may sit
// under two keys (a later round keeping an earlier round's state
// unchanged).
func (s *StateStore) Adopt(splitID int, v StateFile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state[splitID] = v
}

// Value restores state (nil if none) without building its file.
func (s *StateStore) Value(splitID int) StateFile {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state[splitID]
}

// Get builds the state file saved under a key (nil if none).
func (s *StateStore) Get(splitID int) []byte {
	if v := s.Value(splitID); v != nil {
		return v.File()
	}
	return nil
}

// Len reports how many keys hold state.
func (s *StateStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.state)
}

// TotalBytes reports the size of the stored files across all keys
// (worker state-lease observability): the paper's bytes, not the bytes
// held. A value saved under two keys counts once per key, and so in GET
// /dist/v1/state.
func (s *StateStore) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, v := range s.state {
		n += v.Size()
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
