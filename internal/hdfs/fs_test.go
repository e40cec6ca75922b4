package hdfs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"wavelethist/internal/zipf"
)

func writeFixed(t *testing.T, fs *FileSystem, name string, recordSize int, keys []int64) *File {
	t.Helper()
	w, err := fs.Create(name, recordSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		w.Append(k)
	}
	return w.Close()
}

func TestCreateAndScan(t *testing.T) {
	fs := NewFileSystem(4, 64)
	keys := []int64{7, 0, 42, 1 << 20, 0xFFFFFFFF}
	f := writeFixed(t, fs, "a", 4, keys)
	if f.Size() != int64(4*len(keys)) {
		t.Fatalf("size = %d", f.Size())
	}
	splits := f.Splits(0)
	var got []int64
	for _, s := range splits {
		r := NewSequentialReader(s)
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			got = append(got, rec.Key)
		}
	}
	if len(got) != len(keys) {
		t.Fatalf("scanned %d records, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Errorf("record %d = %d, want %d", i, got[i], keys[i])
		}
	}
}

func TestWideKeys(t *testing.T) {
	fs := NewFileSystem(2, 1024)
	keys := []int64{1 << 40, 0, 123456789012345}
	f := writeFixed(t, fs, "wide", 16, keys)
	r := NewSequentialReader(f.Splits(0)[0])
	for i := range keys {
		rec, ok := r.Next()
		if !ok || rec.Key != keys[i] {
			t.Fatalf("record %d: got %v ok=%v, want %d", i, rec.Key, ok, keys[i])
		}
	}
}

func TestKeyTooBigFor4Bytes(t *testing.T) {
	fs := NewFileSystem(1, 64)
	w, _ := fs.Create("x", 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on key overflow")
		}
	}()
	w.Append(1 << 33)
}

func TestChunkPlacementRoundRobin(t *testing.T) {
	fs := NewFileSystem(3, 64)
	keys := make([]int64, 64) // 256 bytes = 4 chunks of 64
	f := writeFixed(t, fs, "rr", 4, keys)
	chunks := f.Chunks()
	if len(chunks) != 4 {
		t.Fatalf("chunks = %d, want 4", len(chunks))
	}
	for i, c := range chunks {
		if c.Node != i%3 {
			t.Errorf("chunk %d on node %d, want %d", i, c.Node, i%3)
		}
	}
}

func TestSplitsAlignToRecords(t *testing.T) {
	fs := NewFileSystem(2, 1024)
	keys := make([]int64, 100)
	f := writeFixed(t, fs, "al", 12, keys) // 1200 bytes
	splits := f.Splits(100)                // -> aligned down to 96 bytes = 8 records
	total := int64(0)
	for _, s := range splits {
		if s.Length%12 != 0 && s.Index != len(splits)-1 {
			t.Errorf("split %d length %d not record-aligned", s.Index, s.Length)
		}
		total += s.NumRecords()
	}
	if total != 100 {
		t.Errorf("splits cover %d records, want 100", total)
	}
}

func TestSplitLocalityMatchesChunks(t *testing.T) {
	fs := NewFileSystem(4, 64)
	keys := make([]int64, 64)
	f := writeFixed(t, fs, "loc", 4, keys)
	for _, s := range f.Splits(64) {
		if want := f.nodeAt(s.Offset); s.Node != want {
			t.Errorf("split %d node %d, want %d", s.Index, s.Node, want)
		}
	}
}

// TestSplitsMemoized: a file computes each split size's table once, and
// every caller — from any goroutine — gets the same table in a copy of
// its own, so a caller that edits its splits cannot change another's.
func TestSplitsMemoized(t *testing.T) {
	fs := NewFileSystem(3, 64)
	f := writeFixed(t, fs, "memo", 4, make([]int64, 300))
	// Asked split sizes and what they align to: 0 is the chunk size, and
	// a size aligns down to whole 4-byte records.
	sizes := []struct{ asked, aligned int64 }{{0, 64}, {64, 64}, {102, 100}, {256, 256}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				sz := sizes[(g+r)%len(sizes)]
				got, want := f.Splits(sz.asked), f.split(sz.aligned)
				if !slices.Equal(got, want) {
					t.Errorf("Splits(%d) = %v, want %v", sz.asked, got, want)
					return
				}
				got[0].File, got[0].Length = nil, -1
			}
		}(g)
	}
	wg.Wait()
}

func TestOpenMissing(t *testing.T) {
	fs := NewFileSystem(1, 64)
	if _, err := fs.Open("nope"); err == nil {
		t.Error("expected error for missing file")
	}
	writeFixed(t, fs, "yes", 4, []int64{1})
	if _, err := fs.Open("yes"); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	fs.Remove("yes")
	if _, err := fs.Open("yes"); err == nil {
		t.Error("expected error after Remove")
	}
}

func TestRandomReaderSamplesDistinctAscending(t *testing.T) {
	fs := NewFileSystem(2, 1<<20)
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = int64(i)
	}
	f := writeFixed(t, fs, "s", 4, keys)
	split := f.Splits(0)[0]
	r := NewRandomReader(split, 100, zipf.NewRNG(5))
	if r.SampleSize() != 100 {
		t.Fatalf("sample size = %d", r.SampleSize())
	}
	seen := make(map[int64]bool)
	last := int64(-1)
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.Pos <= last {
			t.Error("positions not strictly ascending")
		}
		last = rec.Pos
		if seen[rec.Key] {
			t.Errorf("duplicate record key %d (sampling with replacement?)", rec.Key)
		}
		seen[rec.Key] = true
	}
	if len(seen) != 100 {
		t.Errorf("delivered %d records, want 100", len(seen))
	}
}

func TestRandomReaderCapsAtSplitSize(t *testing.T) {
	fs := NewFileSystem(1, 1<<20)
	f := writeFixed(t, fs, "c", 4, []int64{1, 2, 3})
	r := NewRandomReader(f.Splits(0)[0], 100, zipf.NewRNG(1))
	if r.SampleSize() != 3 {
		t.Fatalf("sample size = %d, want 3", r.SampleSize())
	}
}

// The random reader must be uniform: over many trials, each record is
// sampled at approximately the same rate.
func TestRandomReaderUniformity(t *testing.T) {
	fs := NewFileSystem(1, 1<<20)
	const n = 50
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	f := writeFixed(t, fs, "u", 4, keys)
	split := f.Splits(0)[0]
	counts := make([]int, n)
	rng := zipf.NewRNG(42)
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		r := NewRandomReader(split, 10, rng)
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			counts[rec.Key]++
		}
	}
	want := float64(trials) * 10 / n
	for i, c := range counts {
		if float64(c) < want*0.8 || float64(c) > want*1.2 {
			t.Errorf("record %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestVarWriterSequentialScan(t *testing.T) {
	fs := NewFileSystem(2, 1<<20)
	w, err := fs.CreateVar("v")
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		key int64
		pl  int
	}
	recs := []rec{{5, 0}, {7, 10}, {42, 3}, {0xFFFFFFFF, 100}, {1, 1}}
	for _, rc := range recs {
		w.Append(rc.key, rc.pl)
	}
	f := w.Close()
	r := NewSequentialVarReader(f.Splits(0)[0])
	for i, rc := range recs {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("record %d missing", i)
		}
		if got.Key != rc.key {
			t.Errorf("record %d key = %d, want %d", i, got.Key, rc.key)
		}
		if got.Size != varMinRecord+rc.pl {
			t.Errorf("record %d size = %d, want %d", i, got.Size, varMinRecord+rc.pl)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("unexpected extra record")
	}
}

func TestVarSplitOwnership(t *testing.T) {
	// Records owned by the split they *start* in; each record read exactly
	// once across all splits.
	fs := NewFileSystem(2, 1<<20)
	w, _ := fs.CreateVar("vo")
	const n = 200
	for i := 0; i < n; i++ {
		w.Append(int64(i), i%37)
	}
	f := w.Close()
	seen := make(map[int64]int)
	for _, s := range f.Splits(256) {
		r := NewSequentialVarReader(s)
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			seen[rec.Key]++
		}
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct records, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Errorf("record %d read %d times", k, c)
		}
	}
}

func TestRandomVarReaderDistinct(t *testing.T) {
	fs := NewFileSystem(1, 1<<20)
	w, _ := fs.CreateVar("vr")
	const n = 300
	for i := 0; i < n; i++ {
		w.Append(int64(i), (i*13)%61)
	}
	f := w.Close()
	split := f.Splits(0)[0]
	r := NewRandomVarReader(split, 50, zipf.NewRNG(3))
	if r.SampleSize() == 0 {
		t.Fatal("no samples")
	}
	seen := make(map[int64]bool)
	last := int64(-1)
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.Pos <= last {
			t.Error("sampled records not ascending by position")
		}
		last = rec.Pos
		if seen[rec.Key] {
			t.Errorf("duplicate sampled record %d", rec.Key)
		}
		seen[rec.Key] = true
	}
}

func TestRandomVarReaderExhaustsSmallSplit(t *testing.T) {
	fs := NewFileSystem(1, 1<<20)
	w, _ := fs.CreateVar("small")
	for i := 0; i < 5; i++ {
		w.Append(int64(i), 2)
	}
	f := w.Close()
	r := NewRandomVarReader(f.Splits(0)[0], 1000, zipf.NewRNG(9))
	// Over-sampling a tiny split: we should get at most 5 distinct records.
	if r.SampleSize() > 5 {
		t.Errorf("sampled %d records from a 5-record split", r.SampleSize())
	}
	if r.SampleSize() < 3 {
		t.Errorf("sampled only %d records; expected near-exhaustion", r.SampleSize())
	}
}

// Property: any mix of payload sizes scans back exactly.
func TestVarRoundTripQuick(t *testing.T) {
	f := func(payloads []uint8, seed uint16) bool {
		if len(payloads) == 0 {
			return true
		}
		fs := NewFileSystem(2, 1<<20)
		w, _ := fs.CreateVar("q")
		for i, p := range payloads {
			w.Append(int64(i), int(p))
		}
		file := w.Close()
		r := NewSequentialVarReader(file.Splits(0)[0])
		for i, p := range payloads {
			rec, ok := r.Next()
			if !ok || rec.Key != int64(i) || rec.Size != varMinRecord+int(p) {
				return false
			}
		}
		_, ok := r.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFileHasChunk(t *testing.T) {
	fs := NewFileSystem(2, 64)
	w, _ := fs.Create("empty", 4)
	f := w.Close()
	if len(f.Chunks()) != 1 {
		t.Errorf("empty file chunks = %d, want 1", len(f.Chunks()))
	}
	if len(f.Splits(0)) != 0 {
		t.Errorf("empty file splits = %d, want 0", len(f.Splits(0)))
	}
}

func TestBytesReadAccounting(t *testing.T) {
	fs := NewFileSystem(1, 1<<20)
	keys := make([]int64, 10)
	f := writeFixed(t, fs, "io", 8, keys)
	r := NewSequentialReader(f.Splits(0)[0])
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.BytesRead() != 80 {
		t.Errorf("BytesRead = %d, want 80", r.BytesRead())
	}
}

// floydMapReference is the sampler NewRandomReader used before the
// bitmap: Floyd's algorithm over a hash set, then a sort. Kept as the
// reference the bitmap reader must match draw for draw.
func floydMapReference(nj, sampleCount int64, rng *zipf.RNG) []int64 {
	if sampleCount > nj {
		sampleCount = nj
	}
	if sampleCount < 0 {
		sampleCount = 0
	}
	chosen := make(map[int64]bool, sampleCount)
	for j := nj - sampleCount; j < nj; j++ {
		t := rng.Int63n(j + 1)
		if chosen[t] {
			chosen[j] = true
		} else {
			chosen[t] = true
		}
	}
	offsets := make([]int64, 0, len(chosen))
	for idx := range chosen {
		offsets = append(offsets, idx)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	return offsets
}

// checkAgainstMapFloyd asserts the bitmap sampler delivers the
// reference's offsets in the same order and leaves the RNG in the same
// state: TwoLevel-S draws its second-level Bernoullis from the task RNG
// after Open.
func checkAgainstMapFloyd(t *testing.T, nj, sample int64, seed uint64) {
	t.Helper()
	const recordSize = 8
	fs := NewFileSystem(1, 1<<20)
	keys := make([]int64, nj+3) // the split stops short of the file's end
	for i := range keys {
		keys[i] = int64(i)
	}
	f := writeFixed(t, fs, "f", recordSize, keys)
	split := Split{File: f, Offset: recordSize, Length: nj * recordSize}
	refRNG, rng := zipf.NewRNG(seed), zipf.NewRNG(seed)
	want := floydMapReference(nj, sample, refRNG)
	r := NewRandomReader(split, sample, rng)
	if rng.Uint64() != refRNG.Uint64() {
		t.Fatalf("nj=%d sample=%d seed=%d: RNG state diverged after sampling", nj, sample, seed)
	}
	if r.SampleSize() != int64(len(want)) {
		t.Fatalf("nj=%d sample=%d seed=%d: SampleSize %d, want %d", nj, sample, seed, r.SampleSize(), len(want))
	}
	for i, off := range want {
		rec, ok := r.Next()
		if !ok || rec.Pos != split.Offset+off*recordSize || rec.Key != off+1 {
			t.Fatalf("nj=%d sample=%d seed=%d: record %d = %+v (ok=%v), want offset %d", nj, sample, seed, i, rec, ok, off)
		}
	}
	if rec, ok := r.Next(); ok {
		t.Fatalf("nj=%d sample=%d seed=%d: extra record %+v", nj, sample, seed, rec)
	}
	if r.Err() != nil || r.BytesRead() != int64(len(want))*recordSize {
		t.Fatalf("nj=%d sample=%d seed=%d: err %v, read %d bytes", nj, sample, seed, r.Err(), r.BytesRead())
	}
}

func TestRandomReaderMatchesMapFloyd(t *testing.T) {
	cases := []struct{ nj, sample int64 }{
		{0, 0}, {0, 5}, {1, 0}, {1, 1}, {1, 2}, {64, 64}, {64, 63}, {65, 1},
		{100, -3}, {100, 0}, {100, 1}, {100, 37}, {100, 99}, {100, 100}, {100, 1000},
		{127, 64}, {128, 127}, {129, 129}, {1000, 250}, {4099, 977},
	}
	for _, c := range cases {
		for seed := uint64(0); seed < 60; seed++ {
			checkAgainstMapFloyd(t, c.nj, c.sample, seed)
		}
	}
}

func FuzzRandomReaderMatchesMapFloyd(f *testing.F) {
	f.Add(uint16(0), int16(0), uint64(0))
	f.Add(uint16(16384), int16(3906), uint64(7))
	f.Add(uint16(191), int16(-1), uint64(1<<63))
	f.Fuzz(func(t *testing.T, nj uint16, sample int16, seed uint64) {
		checkAgainstMapFloyd(t, int64(nj), int64(sample), seed)
	})
}

// A split that claims more bytes than its file holds must surface as
// Err, not as a shorter split, on every reader.
func TestReadersReportShortReads(t *testing.T) {
	fs := NewFileSystem(1, 1<<20)
	fixed := writeFixed(t, fs, "fixed", 4, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	vw, err := fs.CreateVar("var")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		vw.Append(i, 5)
	}
	variable := vw.Close()
	type nextReader interface {
		Next() (Record, bool)
		Err() error
	}
	drain := func(r nextReader) (n int) {
		for {
			if _, ok := r.Next(); !ok {
				return n
			}
			n++
		}
	}
	for _, over := range []int64{0, 16} {
		fsplit := Split{File: fixed, Length: fixed.Size() + over}
		vsplit := Split{File: variable, Length: variable.Size() + over}
		readers := map[string]nextReader{
			"sequential":     NewSequentialReader(fsplit),
			"random":         NewRandomReader(fsplit, fsplit.NumRecords(), zipf.NewRNG(1)),
			"sequential-var": NewSequentialVarReader(vsplit),
			"random-var":     NewRandomVarReader(vsplit, 4, zipf.NewRNG(1)),
		}
		for name, r := range readers {
			n := drain(r)
			if over == 0 && (r.Err() != nil || n == 0) {
				t.Errorf("%s: exact split read %d records, err %v", name, n, r.Err())
			}
			if over > 0 && r.Err() == nil {
				t.Errorf("%s: split overrunning its file by %d bytes read %d records and reported no error", name, over, n)
			}
		}
	}
	// A variable-length file cut mid-record has no closing delimiter.
	variable.data = variable.data[:len(variable.data)-3]
	r := NewSequentialVarReader(Split{File: variable, Length: variable.Size()})
	if n := drain(r); n != 7 || r.Err() == nil {
		t.Errorf("truncated var file: read %d records, err %v; want 7 and an error", n, r.Err())
	}
}

// TestReadKeysMatchesNext: for each reader, batch size and split —
// including a split overrunning its file and a variable-length file cut
// mid-record — ReadKeys delivers exactly the keys Next does, in batches
// of at most the asked size, then the same BytesRead and Err.
func TestReadKeysMatchesNext(t *testing.T) {
	fs := NewFileSystem(3, 256)
	keys := make([]int64, 500)
	for i := range keys {
		keys[i] = int64(i) * 7919 % 1000
	}
	varFile := func(name string) *File {
		w, err := fs.CreateVar(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			w.Append(k, i%13)
		}
		return w.Close()
	}
	cut := varFile("cut")
	cut.data = cut.data[:len(cut.data)-3]
	type reader interface {
		RecordReader
		Next() (Record, bool)
	}
	fixed := map[string]func(Split) reader{
		"sequential": func(s Split) reader { return NewSequentialReader(s) },
		"random":     func(s Split) reader { return NewRandomReader(s, s.NumRecords()/3+1, zipf.NewRNG(uint64(s.Index))) },
	}
	variable := map[string]func(Split) reader{
		"sequential-var": func(s Split) reader { return NewSequentialVarReader(s) },
		"random-var":     func(s Split) reader { return NewRandomVarReader(s, 20, zipf.NewRNG(uint64(s.Index))) },
	}
	for _, tc := range []struct {
		file    *File
		readers map[string]func(Split) reader
	}{
		{writeFixed(t, fs, "f4", 4, keys), fixed},
		{writeFixed(t, fs, "f16", 16, keys), fixed},
		{varFile("var"), variable},
		{cut, variable},
	} {
		splits := tc.file.Splits(0)
		over := splits[len(splits)-1]
		over.Length += 64
		splits = append(splits, over)
		for name, open := range tc.readers {
			for _, s := range splits {
				want := open(s)
				var wantKeys []int64
				for rec, ok := want.Next(); ok; rec, ok = want.Next() {
					wantKeys = append(wantKeys, rec.Key)
				}
				for _, size := range []int{1, 7, 8192} {
					got := open(s)
					var gotKeys, batch []int64
					for batch = got.ReadKeys(batch[:0], size); len(batch) > 0; batch = got.ReadKeys(batch[:0], size) {
						if len(batch) > size {
							t.Fatalf("%s %s split %d: batch of %d keys, asked for %d", tc.file.Name, name, s.Index, len(batch), size)
						}
						gotKeys = append(gotKeys, batch...)
					}
					at := fmt.Sprintf("%s %s split %d (length %d) batch %d", tc.file.Name, name, s.Index, s.Length, size)
					if !slices.Equal(gotKeys, wantKeys) {
						t.Errorf("%s: ReadKeys delivered %d keys, Next %d", at, len(gotKeys), len(wantKeys))
					}
					if got.BytesRead() != want.BytesRead() || fmt.Sprint(got.Err()) != fmt.Sprint(want.Err()) {
						t.Errorf("%s: ReadKeys read %d bytes (err %v), Next %d (err %v)", at, got.BytesRead(), got.Err(), want.BytesRead(), want.Err())
					}
				}
			}
		}
	}
	// The overrun splits and the cut file must have exercised the error path.
	if r := NewSequentialVarReader(cut.Splits(0)[len(cut.Splits(0))-1]); len(r.ReadKeys(nil, 8192)) == 0 || r.Err() == nil {
		t.Errorf("cut file's last split: err %v, want an unterminated record", r.Err())
	}
}
