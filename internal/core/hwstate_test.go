package core

import (
	"bytes"
	"context"
	"math"
	"math/bits"
	"slices"
	"testing"

	"wavelethist/internal/datagen"
	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
)

// H-WTopk's 1D split state keeps v_j and the coefficients of ranges two
// keys share, and answers every round from them in closed form. Here it is
// pinned, round by round, against the byte path it replaced: the full
// transform, two-sided selection over all of it, the encoded file, a scan
// of the file against T1/m and a merge join against R.

// splitInput decodes fuzz bytes into v_j over u = 2^(logu%21): each 5-byte
// record is a 24-bit gap to the next key (mod u) and a 16-bit count - 1.
func splitInput(logu uint8, data []byte) (u int64, keys []int64, counts []float64) {
	u = int64(1) << (logu % 21)
	var next int64
	for ; len(data) >= 5; data = data[5:] {
		gap := int64(data[0]) | int64(data[1])<<8 | int64(data[2])<<16
		x := next + gap%u
		if x >= u {
			break
		}
		keys = append(keys, x)
		counts = append(counts, 1+float64(int(data[3])|int(data[4])<<8))
		next = x + 1
	}
	return u, keys, counts
}

// splitBytes is splitInput's inverse.
func splitBytes(keys []int64, counts []float64) []byte {
	var b []byte
	var next int64
	for i, x := range keys {
		gap, c := x-next, int(counts[i])-1
		b = append(b, byte(gap), byte(gap>>8), byte(gap>>16), byte(c), byte(c>>8))
		next = x + 1
	}
	return b
}

// candidateSet picks R from rsel: the full transform's ids whose position
// bit is set (cycling over rsel), plus one id per byte of rsel, mod u.
func candidateSet(full []wavelet.Coef, u int64, rsel []byte) []int64 {
	if len(rsel) == 0 {
		return nil
	}
	var r []int64
	for p, c := range full {
		if rsel[p%len(rsel)]>>(p%8)&1 != 0 {
			r = append(r, c.Index)
		}
	}
	for i, b := range rsel {
		r = append(r, (int64(b)<<(i%13))%u)
	}
	slices.Sort(r)
	return slices.Compact(r)
}

// sharedCoefs are the coefficients of full whose range holds two or more
// keys: what the state must store explicitly, and nothing else.
func sharedCoefs(full []wavelet.Coef, keys []int64, u int64) []wavelet.Coef {
	var out []wavelet.Coef
	for _, c := range full {
		lo, hi := int64(0), u
		if c.Index > 0 {
			j := bits.Len64(uint64(c.Index)) - 1
			lo = (c.Index - 1<<j) * (u >> j)
			hi = lo + u>>j
		}
		n := 0
		for _, x := range keys {
			if lo <= x && x < hi {
				n++
			}
		}
		if n >= 2 {
			out = append(out, c)
		}
	}
	return out
}

// checkSplitState runs one split's three H-WTopk map tasks over the state
// newHWSplitState1D builds and compares each with the byte path.
func checkSplitState(t *testing.T, u int64, keys []int64, counts []float64, k int, thresh float64, rsel []byte) {
	t.Helper()
	full := wavelet.AppendSparseTransformSorted(nil, keys, counts, u)

	// Round 1: the heaps and the file.
	ref := selectTwoSided(full, k)
	sel := newTwoSided(k)
	st, total := newHWSplitState1D(keys, counts, u, sel)
	if total != len(full) {
		t.Fatalf("u=%d, %d keys: counted %d coefficients, the transform has %d", u, len(keys), total, len(full))
	}
	if !sameItems(sel.hi.Sorted(), ref.hi.Sorted()) || !sameItems(sel.lo.Sorted(), ref.lo.Sorted()) {
		t.Fatalf("u=%d, k=%d, keys %v counts %v:\n top %v\nwant %v\n bottom %v\nwant %v",
			u, k, keys, counts, sel.hi.Sorted(), ref.hi.Sorted(), sel.lo.Sorted(), ref.lo.Sorted())
	}
	if want := sharedCoefs(full, keys, u); !slices.Equal(st.coefs, want) {
		t.Fatalf("u=%d, keys %v counts %v: explicit %v, want the shared ranges' %v", u, keys, counts, st.coefs, want)
	}
	var sent []int64
	for _, it := range append(ref.hi.Sorted(), ref.lo.Sorted()...) {
		sent = append(sent, it.ID)
	}
	slices.Sort(sent)
	st.out = slices.Compact(sent)
	st.n = total - len(st.out)
	file1 := encodeCoefs(full, st.out)
	store := mapred.NewStateStore()
	store.Adopt(hwStateR1(0), st)
	if got := store.Get(hwStateR1(0)); !bytes.Equal(got, file1) || st.Size() != int64(len(file1)) {
		t.Fatalf("round-1 file: %d bytes (size %d), want %d", len(got), st.Size(), len(file1))
	}

	// Round 2: what clears T1/m, and the remainder.
	var want2 []mapred.KV
	var shipped []int64
	for _, c := range full {
		if !slices.Contains(st.out, c.Index) && math.Abs(c.Value) > thresh {
			want2 = append(want2, mapred.KV{Key: c.Index, Val: c.Value})
			shipped = append(shipped, c.Index)
		}
	}
	res, err := mapred.RunMapSplit(context.Background(), stateMapJob(hwRound2Mapper{thresh: thresh}, store), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Pairs, want2) {
		t.Fatalf("u=%d, T1/m=%v: round-2 pairs %v, want %v", u, thresh, res.Pairs, want2)
	}
	if res.CPUUnits != float64(st.n+len(want2)) || res.InputBytes != int64(len(file1)) {
		t.Errorf("round 2 charged %v work, %d bytes; want %d, %d", res.CPUUnits, res.InputBytes, st.n+len(want2), len(file1))
	}
	left := slices.Concat(st.out, shipped)
	slices.Sort(left)
	file2 := encodeCoefs(full, left)
	if got := store.Get(hwStateR2(0)); !bytes.Equal(got, file2) {
		t.Fatalf("u=%d, T1/m=%v: round-2 file has %d bytes, want %d", u, thresh, len(got), len(file2))
	}
	if len(shipped) == 0 && store.Value(hwStateR2(0)) != store.Value(hwStateR1(0)) {
		t.Error("round 2 replaced a state nothing cleared")
	}
	if !bytes.Equal(store.Get(hwStateR1(0)), file1) {
		t.Error("round 2 modified the round-1 state")
	}

	// Round 3: R against the remainder.
	r := candidateSet(full, u, rsel)
	survivors, err := decodeCoefs(file2)
	if err != nil {
		t.Fatal(err)
	}
	res, err = mapred.RunMapSplit(context.Background(), stateMapJob(hwRound3Mapper{r: r}, store), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := mergeJoinRef(survivors, r); !slices.Equal(res.Pairs, want) {
		t.Fatalf("u=%d, R %v: round-3 pairs %v, want %v", u, r, res.Pairs, want)
	}
	n2 := len(survivors)
	if res.CPUUnits != float64(n2+len(res.Pairs)) || res.InputBytes != int64(len(file2)) {
		t.Errorf("round 3 charged %v work, %d bytes; want %d, %d", res.CPUUnits, res.InputBytes, n2+len(res.Pairs), len(file2))
	}
}

// exactSplit is v_j of one build_exact-shaped split: 4096 Zipf(1.1)
// records over u = 2^20.
func exactSplit(tb testing.TB) (keys []int64, counts []float64) {
	f, _ := testDataset(tb, 4096, 1<<20, 1.1, 4*4096, 7)
	freq := datagen.ExactFrequencies(f)
	for x := range freq {
		keys = append(keys, x)
	}
	slices.Sort(keys)
	for _, x := range keys {
		counts = append(counts, freq[x])
	}
	return keys, counts
}

func FuzzHWTopkSplitState(f *testing.F) {
	keys, counts := exactSplit(f)
	f.Add(uint8(20), uint8(30), 1.5, splitBytes(keys, counts), []byte{0x11, 0x80, 0x03, 0xff, 0x40})
	f.Add(uint8(20), uint8(30), math.NaN(), splitBytes(keys, counts), []byte{0x21})
	rec := func(gap, count int) []byte {
		return []byte{byte(gap), byte(gap >> 8), byte(gap >> 16), byte(count - 1), byte((count - 1) >> 8)}
	}
	cat := func(recs ...[]byte) []byte { return slices.Concat(recs...) }
	f.Add(uint8(0), uint8(2), 0.5, rec(0, 4), []byte{1})                                      // u = 1
	f.Add(uint8(4), uint8(1), 0.1, rec(0, 1), []byte{0xff})                                   // key 0 alone
	f.Add(uint8(4), uint8(3), math.NaN(), rec(15, 2), []byte{0xff, 0x0f})                     // key u-1 alone
	f.Add(uint8(4), uint8(2), 0.0, cat(rec(0, 3), rec(0, 3)), []byte{0xff})                   // adjacent, cancelling
	f.Add(uint8(5), uint8(1), 1.0, cat(rec(0, 4), rec(0, 4), rec(0, 4), rec(0, 4)), []byte{}) // two levels cancel
	f.Add(uint8(3), uint8(4), -1.0, cat(rec(0, 1), rec(0, 2), rec(0, 3), rec(0, 4), rec(0, 5), rec(0, 6), rec(0, 7), rec(0, 8)), []byte{0xaa})
	f.Add(uint8(20), uint8(5), 2.0, cat(rec(0, 9), rec(1<<19-1, 9), rec(1<<19-1, 1)), []byte{0x5a, 0x01}) // 0, u/2, u-1
	f.Add(uint8(12), uint8(39), math.Inf(1), cat(rec(7, 100), rec(1, 1), rec(300, 100), rec(0, 2)), []byte{0x7f})
	f.Fuzz(func(t *testing.T, logu, k uint8, thresh float64, data, rsel []byte) {
		u, keys, counts := splitInput(logu, data)
		checkSplitState(t, u, keys, counts, int(k%40), thresh, rsel)
	})
}

// heldBytes is what a split state keeps in memory for its file.
func (s *hwSplitState) heldBytes() int {
	return 8*(len(s.keys)+len(s.counts)+len(s.out)+len(s.norm)) + 16*len(s.coefs)
}

// TestHWSplitStateHeldSize: at build_exact's split shape the round-1 value
// holds at most a third of its file's bytes (it held all of them as a
// byte file), and nothing but v_j, the shared ranges' coefficients and
// the shipped ids.
func TestHWSplitStateHeldSize(t *testing.T) {
	job := round1Split(t)
	if _, err := mapred.RunMapSplit(context.Background(), job, 0); err != nil {
		t.Fatal(err)
	}
	st := job.State.Value(hwStateR1(0)).(*hwSplitState)
	t.Logf("split of %d keys: holds %d B (%d explicit coefficients) for a %d B file of %d records",
		len(st.keys), st.heldBytes(), len(st.coefs), st.Size(), st.n)
	if int64(3*st.heldBytes()) > st.Size() {
		t.Errorf("round-1 state holds %d B for a %d B file, want <= 1/3", st.heldBytes(), st.Size())
	}
}
