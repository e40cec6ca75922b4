package mapred

import (
	"testing"

	"wavelethist/internal/hdfs"
)

// fileBytes is a state value that is its own file.
type fileBytes []byte

func (b fileBytes) Size() int64  { return int64(len(b)) }
func (b fileBytes) File() []byte { return b }

// sizedFile is a state value that reports its file's size and counts the
// times it is asked to build the file.
type sizedFile struct {
	size   int64
	builds *int
}

func (f sizedFile) Size() int64 { return f.size }
func (f sizedFile) File() []byte {
	*f.builds++
	return make([]byte, f.size)
}

func TestStateStoreBasics(t *testing.T) {
	s := NewStateStore()
	if s.Get(0) != nil || s.Value(0) != nil {
		t.Error("empty store returned data")
	}
	s.Adopt(3, fileBytes{7})
	s.Adopt(0, fileBytes{8, 9})
	if got := s.Get(3); len(got) != 1 || got[0] != 7 {
		t.Errorf("Get(3) = %v", got)
	}
	if got := s.Get(0); len(got) != 2 {
		t.Errorf("Get(0) = %v", got)
	}
	if s.Get(1) != nil || s.Value(1) != nil {
		t.Error("absent key returned data")
	}
}

// TestStateStoreAdoptSharesBuffer: the store keeps the value it was
// given, one value may sit under two keys, and only Get builds a file —
// presence checks and the size total do not.
func TestStateStoreAdoptSharesBuffer(t *testing.T) {
	s := NewStateStore()
	builds := 0
	v := sizedFile{size: 251 << 10, builds: &builds}
	s.Adopt(4, v)
	s.Adopt(5, v)
	if s.Value(4) != StateFile(v) || s.Value(5) != StateFile(v) {
		t.Error("Adopt did not keep the value it was given")
	}
	if s.Len() != 2 || s.TotalBytes() != 2*v.size {
		t.Errorf("after Adopt: %d keys, %d bytes", s.Len(), s.TotalBytes())
	}
	if builds != 0 {
		t.Errorf("Value, Len and TotalBytes built the file %d times", builds)
	}
	if got := s.Get(4); int64(len(got)) != v.size || builds != 1 {
		t.Errorf("Get built %d bytes in %d builds", len(got), builds)
	}
}

func TestBinaryHelpers(t *testing.T) {
	var b []byte
	b = AppendUint64(b, 42)
	b = AppendInt64(b, -7)
	b = AppendFloat64(b, 3.5)
	u, off := ReadUint64(b, 0)
	if u != 42 {
		t.Errorf("uint64 = %d", u)
	}
	i, off := ReadInt64(b, off)
	if i != -7 {
		t.Errorf("int64 = %d", i)
	}
	f, off := ReadFloat64(b, off)
	if f != 3.5 || off != 24 {
		t.Errorf("float64 = %v, off = %d", f, off)
	}
}

func TestEstimateVarRecords(t *testing.T) {
	fs := hdfs.NewFileSystem(2, 1<<20)
	w, _ := fs.CreateVar("v")
	for i := 0; i < 100; i++ {
		w.Append(int64(i), 10) // uniform 27-byte records
	}
	f := w.Close()
	split := f.Splits(270)[0] // exactly 10 records worth of bytes
	if got := estimateVarRecords(split); got != 10 {
		t.Errorf("estimated %d records, want 10", got)
	}
	// Empty file edge.
	w2, _ := fs.CreateVar("empty")
	f2 := w2.Close()
	if got := estimateVarRecords(hdfs.Split{File: f2}); got != 0 {
		t.Errorf("empty estimate = %d", got)
	}
}
