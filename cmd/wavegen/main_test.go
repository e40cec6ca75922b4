package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"wavelethist/internal/datagen"
	"wavelethist/internal/hdfs"
)

// wavegenKeys runs wavegen into a temporary file and returns its keys.
func wavegenKeys(t *testing.T, kind string, n, u int64, alpha float64, seed uint64,
	recordSize int, clientBits, objectBits uint, permute bool) []int64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := run(path, kind, n, u, alpha, seed, recordSize, clientBits, objectBits, permute); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != n*int64(recordSize) {
		t.Fatalf("file size %d, want %d", len(data), n*int64(recordSize))
	}
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(binary.LittleEndian.Uint32(data[i*recordSize:]))
	}
	return keys
}

// fileKeys returns an hdfs file's keys in file order.
func fileKeys(f *hdfs.File) []int64 {
	var keys []int64
	for _, s := range f.Splits(0) {
		r := hdfs.NewSequentialReader(s)
		for batch := r.ReadKeys(nil, 8192); len(batch) > 0; batch = r.ReadKeys(batch[:0], 8192) {
			keys = append(keys, batch...)
		}
	}
	return keys
}

func sameKeys(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d keys, datagen wrote %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: wavegen key %d, datagen key %d", i, got[i], want[i])
		}
	}
}

// TestGeneratorZipf: wavegen writes datagen.GenerateZipf's keys for the
// same recipe, permuted or not.
func TestGeneratorZipf(t *testing.T) {
	for _, permute := range []bool{true, false} {
		got := wavegenKeys(t, "zipf", 20000, 1<<16, 1.1, 5, 4, 0, 0, permute)
		spec := datagen.NewZipfSpec(20000, 1<<16, 1.1, 5)
		spec.PermuteKeys = permute
		f, err := datagen.GenerateZipf(hdfs.NewFileSystem(3, 4096), "z", spec)
		if err != nil {
			t.Fatal(err)
		}
		sameKeys(t, got, fileKeys(f))
	}
}

// TestGeneratorWorldCup: wavegen writes datagen.GenerateWorldCup's keys —
// the per-day hot set included — for the same seed and bits.
func TestGeneratorWorldCup(t *testing.T) {
	got := wavegenKeys(t, "worldcup", 5000, 0, 0, 7, 4, 6, 6, true)
	spec := datagen.NewWorldCupSpec(5000, 7)
	spec.ClientBits, spec.ObjectBits = 6, 6
	f, err := datagen.GenerateWorldCup(hdfs.NewFileSystem(3, 4096), "wc", spec)
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, got, fileKeys(f))
}

func TestGeneratorRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := run(path, "zipf", 10, 1000, 1.1, 1, 4, 0, 0, true); err == nil {
		t.Error("accepted non-power-of-two domain")
	}
	if err := run(path, "bogus", 10, 16, 1, 1, 4, 0, 0, true); err == nil {
		t.Error("accepted unknown kind")
	}
	if err := run(path, "zipf", 10, 16, 0, 1, 4, 0, 0, true); err == nil {
		t.Error("accepted alpha 0")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a refused recipe left an output file (stat: %v)", err)
	}
}

func TestRunWritesRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := run(path, "zipf", 500, 256, 1.1, 3, 8, 0, 0, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 500*8 {
		t.Fatalf("file size %d, want %d", len(data), 500*8)
	}
	for i := 0; i < 500; i++ {
		k := binary.LittleEndian.Uint32(data[i*8:])
		if k >= 256 {
			t.Fatalf("record %d key %d out of domain", i, k)
		}
	}
	// Validation failures.
	if err := run(path, "zipf", 0, 256, 1.1, 3, 4, 0, 0, true); err == nil {
		t.Error("accepted zero records")
	}
	if err := run(path, "zipf", 10, 256, 1.1, 3, 2, 0, 0, true); err == nil {
		t.Error("accepted record size 2")
	}
}
