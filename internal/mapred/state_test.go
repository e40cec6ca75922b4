package mapred

import (
	"testing"

	"wavelethist/internal/hdfs"
)

func TestStateStoreBasics(t *testing.T) {
	s := NewStateStore()
	if s.Get(0) != nil {
		t.Error("empty store returned data")
	}
	s.Adopt(3, []byte{7})
	s.Adopt(0, []byte{8, 9})
	if got := s.Get(3); len(got) != 1 || got[0] != 7 {
		t.Errorf("Get(3) = %v", got)
	}
	if got := s.Get(0); len(got) != 2 {
		t.Errorf("Get(0) = %v", got)
	}
	if s.Get(1) != nil {
		t.Error("absent key returned data")
	}
}

func TestStateStoreAdoptSharesBuffer(t *testing.T) {
	s := NewStateStore()
	src := []byte{1, 2, 3}
	s.Adopt(4, src)
	if got := s.Get(4); &got[0] != &src[0] {
		t.Error("Adopt copied the buffer it was given")
	}
	if s.Len() != 1 || s.TotalBytes() != 3 {
		t.Errorf("after Adopt: %d keys, %d bytes", s.Len(), s.TotalBytes())
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
